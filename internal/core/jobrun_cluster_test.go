package core

import (
	"context"
	"testing"
	"time"

	"pregelix/internal/graphgen"
)

// TestClusterDeltaRefreshReportsTraffic: a cluster delta refresh is
// driven like any job, so its superstep statistics carry the shuffle's
// traffic and its replies feed the rebalancer's per-partition weights.
func TestClusterDeltaRefreshReportsTraffic(t *testing.T) {
	g := unweighted(240, 4, 19)
	coord := startDistCluster(t, 2, 2)
	const eps = 1e-10
	spec := runDistDelta(t, coord, "dpr@j1", g, eps)

	_, muts := addEdgeChurn(g, 0.02, 41)
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	stats, err := coord.DeltaRefresh(ctx, DeltaSubmission{
		Version: "dpr@j1", Name: "dpr@j1@d1", Spec: spec, Job: job, Muts: muts,
	})
	if err != nil {
		t.Fatal(err)
	}
	var netBytes, netTuples int64
	for _, ss := range stats.SuperstepStats {
		netBytes += ss.NetworkBytes
		netTuples += ss.NetworkTuples
	}
	if netBytes == 0 || netTuples == 0 {
		t.Fatalf("delta refresh of %d supersteps (%d messages) reported no connector traffic: %d bytes, %d tuples",
			stats.Supersteps, stats.TotalMessages, netBytes, netTuples)
	}
	coord.mu.Lock()
	loads := len(coord.partLoad)
	coord.mu.Unlock()
	if loads != 4 {
		t.Fatalf("refresh left load counters for %d partitions, want 4", loads)
	}
}

// TestClusterJobLeavesNoWorkerDFSState: the global state's one durable
// home is the checkpoint manifest in the controller's store, so a
// finished cluster job — checkpointed or not — leaves nothing under
// /pregelix/ on any worker's file system, where nothing would ever
// remove it.
func TestClusterJobLeavesNoWorkerDFSState(t *testing.T) {
	cc := startChaosCluster(t, CoordinatorConfig{}, 2, 2, nil)
	g := graphgen.Webmap(200, 4, 3)
	stats, _, err := runChaosJob(t, cc.coordinator(), "pr@j1", "pagerank", g, 5, 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints == 0 {
		t.Fatal("no checkpoints recorded")
	}
	for i, w := range cc.workers {
		w.session.mu.Lock()
		rt := w.session.rt
		w.session.mu.Unlock()
		if left := rt.DFS.List("/pregelix/"); len(left) != 0 {
			t.Fatalf("worker %d keeps %d files of the finished job: %v", i, len(left), left)
		}
		if !rt.DFS.Exists("/in/g") {
			t.Fatalf("worker %d lost the replicated input", i)
		}
	}
}
