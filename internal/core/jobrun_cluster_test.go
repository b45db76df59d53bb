package core

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/pregel"
)

// TestClusterDeltaRefreshReportsTraffic: a cluster delta refresh is
// driven like any job, so its superstep statistics carry the shuffle's
// traffic. (That the replies feed the run's per-partition weights is
// TestRunOwnsSplitState's.)
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

// TestRunOwnsSplitState: the split table and the partition loads belong
// to the run that committed and measured them. After a job that split
// its hottest partition, a worker joining the idle cluster is given its
// share as if no job had ever run — base partitions, all alike — and the
// next job's supersteps and checkpoints carry no split.
func TestRunOwnsSplitState(t *testing.T) {
	coord, peers, log, first := startMoverCluster(t, moverCase{kind: "split", founding: []int{2, 2}})
	ctx := context.Background()
	// Partition p lives on node p%4: a's nc2 is heavy, b's nc4 is hot.
	peers["a"].reply[rpcSuperstep] = &superstepReply{
		Parts: []partCount{{Part: 0, Vertices: 10}, {Part: 1, Vertices: 800}}}
	peers["b"].reply[rpcSuperstep] = &superstepReply{
		Parts: []partCount{{Part: 2, Vertices: 10}, {Part: 3, Vertices: 500, Msgs: 500}}}
	lastSuperstep := func() superstepMsg {
		t.Helper()
		calls := log.snapshot()
		_, last := firstLast(calls, rpcSuperstep)
		var msg superstepMsg
		if last < 0 || json.Unmarshal(calls[last].data, &msg) != nil {
			t.Fatalf("no readable job.superstep in %v", methodsOf(calls))
		}
		return msg
	}
	// manifestOf commits the run's table through the checkpoint writer
	// and reads its manifest back. The scripted peers image no
	// partitions, so the table is committed with none, and recovery's
	// discovery would rightly skip it as unrestorable: read the committed
	// file itself.
	manifestOf := func(run *jobRun) *checkpointManifest {
		t.Helper()
		table := partTable{BaseParts: coord.baseParts(), Splits: run.splits}
		if err := writeCheckpoint(ctx, coord.ckpt, run, run.gs.Superstep, table, nil); err != nil {
			t.Fatal(err)
		}
		var m checkpointManifest
		data, err := coord.ckpt.ReadFile(ckptPath(run.name, run.gs.Superstep) + "/manifest.json")
		if err != nil || json.Unmarshal(data, &m) != nil {
			t.Fatalf("no manifest of %s: %v", run.name, err)
		}
		return &m
	}

	ph := &clusterPhases{c: coord}
	if _, err := ph.superstep(ctx, first, 1, pregel.FullOuterJoin); err != nil {
		t.Fatal(err)
	}
	if want := map[int]int64{0: 10, 1: 800, 2: 10, 3: 1000}; !reflect.DeepEqual(first.partLoad, want) {
		t.Fatalf("superstep replies left the run loads %v, want %v", first.partLoad, want)
	}
	if committed, err := coord.splitPartition(ctx, first, SplitDecision{Parent: 3, Children: 2}); err != nil || !committed {
		t.Fatalf("split: committed=%v err=%v", committed, err)
	}
	if _, err := ph.superstep(ctx, first, 2, pregel.FullOuterJoin); err != nil {
		t.Fatal(err)
	}
	if msg, m := lastSuperstep(), manifestOf(first); len(first.splits) != 1 || len(msg.Splits) != 1 || len(m.Splits) != 1 {
		t.Fatalf("the splitting run: %d splits, %d broadcast, %d journaled; want 1 each", len(first.splits), len(msg.Splits), len(m.Splits))
	}

	// The job is over. A joiner's fair share of four nodes over three
	// workers is one node: weighed by the finished run's table and loads
	// it would be nc2 (partition 1 and a child of the split); with
	// nothing to weigh it is the first donor's first.
	startScriptedPeer(t, coord, "j", 1, true, log)
	if err := coord.prepareCluster(ctx); err != nil {
		t.Fatal(err)
	}
	evs := coord.Events()
	if ev := evs[len(evs)-1]; ev.Kind != "scale-out" || !reflect.DeepEqual(ev.Nodes, []string{"nc1"}) || ev.Partitions != 0 {
		t.Fatalf("between-jobs scale-out %+v, want nc1 moved and no partition state", ev)
	}

	second := coord.newRun("mv@j2", json.RawMessage(`{}`), &pregel.Job{}, nil)
	if _, err := (&clusterPhases{c: coord}).superstep(ctx, second, 1, pregel.FullOuterJoin); err != nil {
		t.Fatal(err)
	}
	if msg, m := lastSuperstep(), manifestOf(second); len(msg.Splits) != 0 || len(m.Splits) != 0 || msg.Name != "mv@j2" {
		t.Fatalf("the next job's first superstep carries splits %v, its manifest journals %v; want none", msg.Splits, m.Splits)
	}
}
