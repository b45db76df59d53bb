package core

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/internal/tuple"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// elasticWorker tracks one worker goroutine started against a running
// cluster, so tests can trigger drains and assert clean exits.
type elasticWorker struct {
	drain  chan struct{}
	result chan error
}

// addElasticWorker joins one elastic (or standby) worker to a running
// cluster and returns handles for draining it and reading RunWorker's
// return. The test's end cancels the worker and waits for its return
// before its directory is removed.
func addElasticWorker(t *testing.T, coord *Coordinator, nodes int, elastic bool) *elasticWorker {
	t.Helper()
	ew := &elasticWorker{drain: make(chan struct{}), result: make(chan error, 1)}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	returned := make(chan struct{})
	t.Cleanup(func() {
		cancel()
		select {
		case <-returned:
		case <-time.After(30 * time.Second):
			t.Error("elastic worker did not return after cancellation")
		}
	})
	go func() {
		defer close(returned)
		ew.result <- RunWorker(ctx, WorkerConfig{
			CCAddr:   coord.Addr(),
			BaseDir:  dir,
			Nodes:    nodes,
			BuildJob: distTestBuilder,
			Elastic:  elastic,
			Drain:    ew.drain,
		})
	}()
	return ew
}

// joinAtSuperstep returns a Progress callback that starts n elastic
// workers once the job passes the given superstep, then blocks the
// superstep loop briefly until they have parked — so the very next
// boundary performs the rebalance deterministically.
func joinAtSuperstep(t *testing.T, coord *Coordinator, at int64, n, nodes int) (func(int64), *atomic.Bool) {
	t.Helper()
	var joined atomic.Bool
	return func(ss int64) {
		if ss < at || !joined.CompareAndSwap(false, true) {
			return
		}
		for i := 0; i < n; i++ {
			addElasticWorker(t, coord, nodes, true)
		}
		deadline := time.Now().Add(15 * time.Second)
		for !coord.pendingRebalance() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}, &joined
}

// countEvents tallies a coordinator's events of one kind and the
// partitions they moved.
func countEvents(coord *Coordinator, kind EventKind) (n, parts int) {
	for _, ev := range coord.Events() {
		if ev.Kind == kind {
			n++
			parts += ev.Partitions
		}
	}
	return
}

// TestElasticScaleOutMidJob is the tentpole acceptance test: a PageRank
// running on 2 workers scales to 4 mid-job — two elastic workers join
// at superstep ≥ 3, whole partitions migrate onto them as frame images
// between supersteps — and the results must equal both a static
// 2-worker run and the reference interpreter, with no superstep lost or
// replayed. The migration must leak neither pooled frames nor
// goroutines.
func TestElasticScaleOutMidJob(t *testing.T) {
	g := graphgen.Webmap(300, 4, 11)
	const iterations = 8
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", iterations), g)

	// Static 2-worker baseline.
	static := startKillableCluster(t, CoordinatorConfig{}, 2, 2, nil)
	staticStats, staticOut, err := runDistJob(t, static.coord, "pr-static@j1", "pagerank", g, iterations, 0)
	if err != nil {
		t.Fatal(err)
	}
	compareValues(t, parseOutput(t, staticOut), want, "static-2-workers")
	static.coord.Close()

	leases := tuple.LeasedFrames()
	goroutines := runtime.NumGoroutine()

	kc := startKillableCluster(t, CoordinatorConfig{}, 2, 2, nil)
	progress, joined := joinAtSuperstep(t, kc.coord, 3, 2, 1)
	spec, _ := json.Marshal(distTestSpec{Algorithm: "pagerank", Input: "/in/g", Iterations: iterations})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	stats, out, err := kc.coord.RunJob(ctx, DistSubmission{
		Name:       "pr-scale@j1",
		Spec:       spec,
		Job:        job,
		InputPath:  "/in/g",
		InputData:  graphText(t, g),
		WantOutput: true,
		Progress:   progress,
	})
	if err != nil {
		t.Fatalf("job did not survive the scale-out: %v", err)
	}
	if !joined.Load() {
		t.Fatal("elastic workers never joined")
	}
	if stats.Rebalances == 0 {
		t.Fatal("no rebalance recorded in job stats")
	}
	if stats.Recoveries != 0 {
		t.Fatalf("scale-out must not trigger recovery (got %d recoveries)", stats.Recoveries)
	}
	compareValues(t, parseOutput(t, out), parseOutput(t, staticOut), "scaled-vs-static")
	compareValues(t, parseOutput(t, out), want, "scaled-vs-reference")

	// No superstep may be lost or replayed: a rebalance is not a
	// rollback.
	if int64(len(stats.SuperstepStats)) != staticStats.Supersteps {
		t.Fatalf("%d superstep stat rows, want %d", len(stats.SuperstepStats), staticStats.Supersteps)
	}
	if stats.TotalMessages != staticStats.TotalMessages {
		t.Fatalf("scaled run counted %d messages, static counted %d", stats.TotalMessages, staticStats.TotalMessages)
	}

	if got := kc.coord.Workers(); got != 4 {
		t.Fatalf("live workers %d, want 4 after scale-out", got)
	}
	n, parts := countEvents(kc.coord, "scale-out")
	if n == 0 || parts == 0 {
		t.Fatalf("scale-out events incomplete (n=%d, migrated partitions=%d): %+v",
			n, parts, kc.coord.Events())
	}
	// Every worker must own at least one node after the rebalance.
	for _, w := range kc.coord.Topology() {
		if len(w.Nodes) == 0 {
			t.Fatalf("worker %s left with no nodes: %+v", w.Addr, kc.coord.Topology())
		}
	}

	// The scaled cluster must run the next job with no special help.
	_, out2, err := runDistJob(t, kc.coord, "pr-scale@j2", "pagerank", g, iterations, 0)
	if err != nil {
		t.Fatalf("job after scale-out: %v", err)
	}
	compareValues(t, parseOutput(t, out2), want, "post-scale-out")

	// Hygiene: pooled frames returned, goroutines drained.
	kc.coord.Close()
	for i := range kc.kills {
		kc.kill(i)
	}
	settleRecovery(t, "frame leases", func() (bool, string) {
		now := tuple.LeasedFrames()
		return now <= leases, fmt.Sprintf("%d leased frames, baseline %d", now, leases)
	})
	settleRecovery(t, "goroutines", func() (bool, string) {
		now := runtime.NumGoroutine()
		return now <= goroutines+2, fmt.Sprintf("%d goroutines, baseline %d", now, goroutines)
	})
}

// TestElasticScaleOutExactOutputCC asserts the strong parity form on an
// algorithm with order-independent integer results: connected
// components scaled 2→3 workers mid-job must produce output
// byte-identical to the static 2-worker run.
func TestElasticScaleOutExactOutputCC(t *testing.T) {
	g := graphgen.BTC(260, 3, 7)
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)

	static := startKillableCluster(t, CoordinatorConfig{}, 2, 2, nil)
	_, staticOut, err := runDistJob(t, static.coord, "cc-static@j1", "cc", g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	compareValues(t, parseOutput(t, staticOut), want, "cc-static")
	static.coord.Close()

	kc := startKillableCluster(t, CoordinatorConfig{}, 2, 2, nil)
	progress, joined := joinAtSuperstep(t, kc.coord, 2, 1, 2)
	spec, _ := json.Marshal(distTestSpec{Algorithm: "cc", Input: "/in/g"})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	stats, out, err := kc.coord.RunJob(ctx, DistSubmission{
		Name:       "cc-scale@j1",
		Spec:       spec,
		Job:        job,
		InputPath:  "/in/g",
		InputData:  graphText(t, g),
		WantOutput: true,
		Progress:   progress,
	})
	if err != nil {
		t.Fatalf("job did not survive the scale-out: %v", err)
	}
	if !joined.Load() || stats.Rebalances == 0 {
		t.Fatalf("joined=%v rebalances=%d", joined.Load(), stats.Rebalances)
	}
	if string(out) != string(staticOut) {
		t.Fatalf("scaled output not byte-identical to static run (%d vs %d bytes)", len(out), len(staticOut))
	}
	compareValues(t, parseOutput(t, out), want, "cc-scaled")
}

// TestDrainMidJob gracefully retires a worker while a PageRank runs on
// 3 workers: its partitions migrate to the survivors at a superstep
// boundary — no checkpoint rollback, no lost superstep, CheckpointEvery
// unset — the job completes with reference results, and the drained
// worker's RunWorker returns nil (a clean release, not an error).
func TestDrainMidJob(t *testing.T) {
	g := graphgen.Webmap(300, 4, 11)
	const iterations = 8
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", iterations), g)

	coord, err := NewCoordinator(CoordinatorConfig{ListenAddr: "127.0.0.1:0", Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	// Two founding workers plus one drainable elastic worker joined
	// before the job, so the cluster is at 3 when the drain lands.
	for i := 0; i < 2; i++ {
		addElasticWorker(t, coord, 2, false)
	}
	readyCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := coord.WaitReady(readyCtx); err != nil {
		t.Fatal(err)
	}
	third := addElasticWorker(t, coord, 1, true)
	settleRecovery(t, "third worker absorbed", func() (bool, string) {
		return coord.Workers() == 3, fmt.Sprintf("%d workers", coord.Workers())
	})

	var drained atomic.Bool
	progress := func(ss int64) {
		if ss < 3 || !drained.CompareAndSwap(false, true) {
			return
		}
		close(third.drain) // the worker asks the controller to drain it
		deadline := time.Now().Add(15 * time.Second)
		for !coord.pendingRebalance() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}

	spec, _ := json.Marshal(distTestSpec{Algorithm: "pagerank", Input: "/in/g", Iterations: iterations})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	stats, out, err := coord.RunJob(ctx, DistSubmission{
		Name:       "pr-drain@j1",
		Spec:       spec,
		Job:        job,
		InputPath:  "/in/g",
		InputData:  graphText(t, g),
		WantOutput: true,
		Progress:   progress,
	})
	if err != nil {
		t.Fatalf("job did not survive the drain: %v", err)
	}
	if !drained.Load() {
		t.Fatal("drain was never requested")
	}
	if stats.Rebalances == 0 {
		t.Fatal("no rebalance recorded in job stats")
	}
	if stats.Recoveries != 0 {
		t.Fatalf("graceful drain must not trigger recovery (got %d)", stats.Recoveries)
	}
	compareValues(t, parseOutput(t, out), want, "drained")
	if int64(len(stats.SuperstepStats)) != stats.Supersteps {
		t.Fatalf("%d superstep stat rows, want %d (drain must not replay)", len(stats.SuperstepStats), stats.Supersteps)
	}

	select {
	case werr := <-third.result:
		if werr != nil {
			t.Fatalf("drained worker exited with error: %v", werr)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("drained worker never exited")
	}
	if got := coord.Workers(); got != 2 {
		t.Fatalf("live workers %d, want 2 after drain", got)
	}
	n, parts := countEvents(coord, "drain")
	if n == 0 || parts == 0 {
		t.Fatalf("drain events incomplete (n=%d, migrated partitions=%d): %+v", n, parts, coord.Events())
	}
	// No worker-lost event: this was a departure, not a failure.
	for _, ev := range coord.Events() {
		if ev.Kind == "worker-lost" {
			t.Fatalf("graceful drain recorded a worker loss: %+v", ev)
		}
	}
}

// TestIdleScaleOutAndDrain exercises elasticity with zero queued jobs:
// an elastic worker joining an idle cluster is absorbed by the idle
// rebalancer (ownership moves; there is no partition state), a drain
// releases a worker the same way, and the resized cluster then runs a
// job normally.
func TestIdleScaleOutAndDrain(t *testing.T) {
	g := graphgen.Webmap(150, 3, 5)
	const iterations = 4
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", iterations), g)

	kc := startKillableCluster(t, CoordinatorConfig{}, 2, 2, nil)
	third := addElasticWorker(t, kc.coord, 2, true)
	// The scale-out's event is recorded after its commit, which is when
	// the joiner starts to count as a live worker: wait for both.
	settleRecovery(t, "idle scale-out", func() (bool, string) {
		n, _ := countEvents(kc.coord, "scale-out")
		return kc.coord.Workers() == 3 && n > 0, fmt.Sprintf("%d workers, events %+v", kc.coord.Workers(), kc.coord.Events())
	})
	if n, _ := countEvents(kc.coord, "scale-out"); n != 1 {
		t.Fatalf("scale-out events: %+v", kc.coord.Events())
	}

	// Every node owned exactly once across the topology.
	owned := map[string]int{}
	for _, w := range kc.coord.Topology() {
		if len(w.Nodes) == 0 {
			t.Fatalf("worker %s owns no nodes after idle rebalance", w.Addr)
		}
		for _, id := range w.Nodes {
			owned[id]++
		}
	}
	for _, id := range kc.coord.Nodes() {
		if owned[string(id)] != 1 {
			t.Fatalf("node %s owned %d times: %+v", id, owned[string(id)], kc.coord.Topology())
		}
	}

	// Drain the joiner again, still idle.
	close(third.drain)
	settleRecovery(t, "idle drain", func() (bool, string) {
		return kc.coord.Workers() == 2, fmt.Sprintf("%d workers", kc.coord.Workers())
	})
	select {
	case werr := <-third.result:
		if werr != nil {
			t.Fatalf("drained worker exited with error: %v", werr)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("drained worker never exited")
	}

	// The resized cluster runs jobs normally.
	_, out, err := runDistJob(t, kc.coord, "pr-idle@j1", "pagerank", g, iterations, 0)
	if err != nil {
		t.Fatalf("job after idle scale/drain: %v", err)
	}
	compareValues(t, parseOutput(t, out), want, "after-idle-elasticity")
}

// TestScaleOutEventAtCommit: an idle scale-out records its event in the
// same hold of the coordinator's lock as the membership flip, so that a
// poller that sees the joiner counted among the workers sees the
// joiner's scale-out event too, with the partitions it took (none,
// between jobs) and the worker count in its detail.
func TestScaleOutEventAtCommit(t *testing.T) {
	kc := startKillableCluster(t, CoordinatorConfig{}, 2, 2, nil)
	third := addElasticWorker(t, kc.coord, 2, true)
	deadline := time.Now().Add(10 * time.Second)
	for kc.coord.Workers() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("the joiner never counted: %d workers", kc.coord.Workers())
		}
		time.Sleep(50 * time.Microsecond)
	}
	var got []Event
	for _, ev := range kc.coord.Events() {
		if ev.Kind == EventScaleOut {
			got = append(got, ev)
		}
	}
	if len(got) != 1 || !strings.HasSuffix(got[0].Detail, "now 3 workers") {
		t.Fatalf("3 workers, and scale-out events %+v", got)
	}

	// Drain the joiner, so that it is gone before its directory is.
	close(third.drain)
	select {
	case werr := <-third.result:
		if werr != nil {
			t.Fatalf("drained worker exited with error: %v", werr)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("drained worker never exited")
	}
}

// TestDrainRefusals pins the refusal paths: draining an unknown worker
// and draining the last live worker both fail synchronously, and a
// migration RPC arriving while a superstep is in flight is refused
// cleanly by the phase slot (the rebalance waits for the boundary; the
// job is unharmed).
func TestDrainRefusals(t *testing.T) {
	coord := startDistCluster(t, 1, 2)
	if err := coord.Drain("10.0.0.1:1"); err == nil {
		t.Fatal("drain of unknown worker succeeded")
	}
	top := coord.Topology()
	if len(top) != 1 {
		t.Fatalf("topology: %+v", top)
	}
	err := coord.Drain(top[0].Addr)
	if err == nil || !strings.Contains(err.Error(), "last live worker") {
		t.Fatalf("drain of last worker: %v", err)
	}

	// Hold a superstep in flight and fire partition.send at its worker:
	// the phase slot must refuse without disturbing the run.
	g := graphgen.Webmap(80, 3, 5)
	release := make(chan struct{})
	var held atomic.Bool
	builder := func(raw json.RawMessage) (*pregel.Job, error) {
		job, err := distTestBuilder(raw)
		if err != nil {
			return nil, err
		}
		inner := job.Program
		job.Program = pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			if ctx.Superstep() == 2 && held.CompareAndSwap(false, true) {
				<-release
			}
			return inner.Compute(ctx, v, msgs)
		})
		return job, nil
	}
	kc := startKillableCluster(t, CoordinatorConfig{}, 1, 2,
		map[int]func(json.RawMessage) (*pregel.Job, error){0: builder})

	jobDone := make(chan error, 1)
	go func() {
		_, _, err := runDistJob(t, kc.coord, "pr-busy@j1", "pagerank", g, 4, 0)
		jobDone <- err
	}()
	settleRecovery(t, "superstep held", func() (bool, string) {
		return held.Load(), "compute not yet reached"
	})

	kc.coord.mu.Lock()
	w := kc.coord.workers[0]
	kc.coord.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var rep partSendReply
	rpcErr := w.call(ctx, rpcPartSend, partSendMsg{Name: "pr-busy@j1", Parts: []int{0}}, &rep)
	if rpcErr == nil || !strings.Contains(rpcErr.Error(), "phase in flight") {
		t.Fatalf("partition.send during in-flight superstep: %v", rpcErr)
	}

	close(release)
	if err := <-jobDone; err != nil {
		t.Fatalf("job after refused migration: %v", err)
	}
}
