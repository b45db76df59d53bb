package core

// The in-process chaos harness: a durable coordinator (StateDir) plus
// session-reusing workers whose rejoin loops keep redialing the
// current coordinator address — so a test can kill and restart the
// coordinator (or any worker) at any phase and assert what a real
// operator would see. Killing the coordinator closes its listener and
// every control connection at once, the in-process analog of
// SIGKILLing the process; restarting builds a fresh Coordinator over
// the same state dir on a fresh port, exactly what `pregelix serve
// -state-dir` does after a crash.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// chaosWorker is one worker process stand-in: its WorkerSession (and
// with it the runtime and sealed query versions) survives connection
// losses the way a live process survives its coordinator dying.
type chaosWorker struct {
	dir     string
	session *WorkerSession
	builder func(json.RawMessage) (*pregel.Job, error)
	cancel  context.CancelFunc
	done    chan struct{}
}

// chaosCluster is the harness: a restartable coordinator rooted in a
// durable state dir, plus workers that rejoin whatever coordinator
// currently answers at addr.
type chaosCluster struct {
	cfg      CoordinatorConfig // template; reused verbatim on restart
	nodesPer int

	mu    sync.Mutex
	coord *Coordinator
	addr  string

	workers []*chaosWorker
}

func (cc *chaosCluster) coordinator() *Coordinator {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.coord
}

func (cc *chaosCluster) ccAddr() string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.addr
}

// killCoordinator drops the coordinator mid-whatever: listener and all
// control connections close at once. The state dir survives.
func (cc *chaosCluster) killCoordinator() {
	cc.coordinator().Close()
}

// restartCoordinator starts a fresh coordinator over the same state
// dir (new port — restarted processes rarely get their old one back),
// publishes the new address to the worker rejoin loops, and waits for
// the cluster to re-assemble.
func (cc *chaosCluster) restartCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(cc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc.mu.Lock()
	cc.coord = coord
	cc.addr = coord.Addr()
	cc.mu.Unlock()
	readyCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := coord.WaitReady(readyCtx); err != nil {
		t.Fatalf("cluster never re-assembled after coordinator restart: %v", err)
	}
	return coord
}

// startWorker launches worker i's rejoin loop. The loop redials the
// current coordinator address after every connection loss, so it
// follows the coordinator across restarts.
func (cc *chaosCluster) startWorker(w *chaosWorker) {
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		for ctx.Err() == nil {
			RunWorker(ctx, WorkerConfig{
				CCAddr:   cc.ccAddr(),
				BaseDir:  w.dir,
				Nodes:    cc.nodesPer,
				BuildJob: w.builder,
				Session:  w.session,
			})
			select {
			case <-ctx.Done():
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()
}

// stopWorker kills worker i's connection loop; the session survives,
// so a later startWorker models a transient partition (the process
// lived on) rather than a process death.
func (cc *chaosCluster) stopWorker(t *testing.T, i int) {
	t.Helper()
	w := cc.workers[i]
	w.cancel()
	select {
	case <-w.done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never stopped")
	}
}

// startChaosCluster assembles the harness: a durable coordinator plus
// `workers` session-reusing rejoin workers.
func startChaosCluster(t *testing.T, cfg CoordinatorConfig, workers, nodesPerWorker int,
	builders map[int]func(json.RawMessage) (*pregel.Job, error)) *chaosCluster {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = filepath.Join(t.TempDir(), "cc-state")
	}
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.Workers = workers
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	cc := &chaosCluster{cfg: cfg, nodesPer: nodesPerWorker}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc.coord = coord
	cc.addr = coord.Addr()
	for i := 0; i < workers; i++ {
		builder := builders[i]
		if builder == nil {
			builder = distTestBuilder
		}
		w := &chaosWorker{dir: t.TempDir(), session: NewWorkerSession(), builder: builder}
		cc.workers = append(cc.workers, w)
		cc.startWorker(w)
	}
	t.Cleanup(func() {
		for _, w := range cc.workers {
			w.cancel()
		}
		for _, w := range cc.workers {
			select {
			case <-w.done:
			case <-time.After(30 * time.Second):
				t.Error("worker never stopped at cleanup")
			}
			w.session.Close()
		}
		cc.coordinator().Close()
	})
	readyCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := coord.WaitReady(readyCtx); err != nil {
		t.Fatalf("cluster never became ready: %v", err)
	}
	return cc
}

// runChaosJob submits one checkpointed job, optionally resuming from
// the state dir's last committed checkpoint and reporting superstep
// progress.
func runChaosJob(t *testing.T, coord *Coordinator, name, algorithm string, g *graphgen.Graph,
	iterations, ckptEvery int, resume bool, progress func(int64)) (*JobStats, []byte, error) {
	t.Helper()
	spec, _ := json.Marshal(distTestSpec{Algorithm: algorithm, Input: "/in/g", Iterations: iterations})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	job.CheckpointEvery = ckptEvery
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	return coord.RunJob(ctx, DistSubmission{
		Name:       name,
		Spec:       spec,
		Job:        job,
		InputPath:  "/in/g",
		InputData:  graphText(t, g),
		WantOutput: true,
		Progress:   progress,
		Resume:     resume,
	})
}

// sessionStore exposes a session's query store — its runtime's — to
// assertions.
func sessionStore(s *WorkerSession) *QueryStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rt.queries
}

// TestChaosCoordinatorKillRestartResumesExactOutput is the tentpole
// acceptance test: SIGKILL the coordinator mid-PageRank — here the
// byte-exact variant, connected components, mid-run after a committed
// checkpoint — restart it against the same state dir, resubmit, and
// the resumed run's output must be byte-identical to a failure-free
// run. The resume must come from the checkpoint (Recoveries recorded,
// fewer supersteps re-executed), not a silent full re-run.
func TestChaosCoordinatorKillRestartResumesExactOutput(t *testing.T) {
	g := graphgen.BTC(260, 3, 7)
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)

	// Failure-free baseline on an ordinary (non-durable) cluster.
	clean := startKillableCluster(t, CoordinatorConfig{}, 2, 2, nil)
	_, cleanOut, err := runDistJob(t, clean.coord, "cc-chaos@j1", "cc", g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	compareValues(t, parseOutput(t, cleanOut), want, "chaos-failure-free")
	clean.coord.Close()

	cc := startChaosCluster(t, CoordinatorConfig{}, 2, 2, nil)
	first := cc.coordinator()

	// Kill the coordinator right after superstep 3 commits — the
	// superstep-2 checkpoint is durable in the state dir, superstep 3's
	// work is not and must be recomputed.
	var killed atomic.Bool
	_, _, err = runChaosJob(t, first, "cc-chaos@j1", "cc", g, 0, 2, false, func(ss int64) {
		if ss == 3 && killed.CompareAndSwap(false, true) {
			cc.killCoordinator()
		}
	})
	if !killed.Load() {
		t.Fatal("kill was never injected (job finished before superstep 3?)")
	}
	if err == nil {
		t.Fatal("job survived its own coordinator being killed")
	}

	coord := cc.restartCoordinator(t)
	stats, out, err := runChaosJob(t, coord, "cc-chaos@j1", "cc", g, 0, 2, true, nil)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if stats.Recoveries == 0 {
		t.Fatal("restarted coordinator did not resume from the committed checkpoint")
	}
	if len(stats.SuperstepStats) >= int(stats.FinalState.Superstep) {
		t.Fatalf("resumed run re-executed %d supersteps of %d — the checkpoint rewind saved nothing",
			len(stats.SuperstepStats), stats.FinalState.Superstep)
	}
	if string(out) != string(cleanOut) {
		t.Fatalf("resumed output not byte-identical to failure-free run (%d vs %d bytes)", len(out), len(cleanOut))
	}
	compareValues(t, parseOutput(t, out), want, "chaos-after-restart")
}

// TestChaosCoordinatorRestartBeforeCheckpointRollsBack kills the
// coordinator before the first checkpoint commits: the restarted
// coordinator finds no manifest and the resume submission must roll
// back to a clean fresh load — and still produce correct results.
func TestChaosCoordinatorRestartBeforeCheckpointRollsBack(t *testing.T) {
	g := graphgen.BTC(150, 3, 5)
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)

	cc := startChaosCluster(t, CoordinatorConfig{}, 2, 2, nil)

	var killed atomic.Bool
	_, _, err := runChaosJob(t, cc.coordinator(), "cc-early@j1", "cc", g, 0, 8, false, func(ss int64) {
		if ss == 1 && killed.CompareAndSwap(false, true) {
			cc.killCoordinator()
		}
	})
	if !killed.Load() {
		t.Fatal("kill was never injected")
	}
	if err == nil {
		t.Fatal("job survived its own coordinator being killed")
	}

	coord := cc.restartCoordinator(t)
	stats, out, err := runChaosJob(t, coord, "cc-early@j1", "cc", g, 0, 8, true, nil)
	if err != nil {
		t.Fatalf("rolled-back run failed: %v", err)
	}
	if stats.Recoveries != 0 {
		t.Fatalf("nothing was checkpointed, yet the run claims %d recoveries", stats.Recoveries)
	}
	compareValues(t, parseOutput(t, out), want, "chaos-rollback")
}

// TestChaosSealedQueriesSurviveRestart covers the query tier across a
// coordinator restart: a sealed result version must stay readable
// after the coordinator dies and a new one re-adopts the rejoining
// workers — and an in-flight reader pinned on a worker when the old
// coordinator died must drain cleanly (no pin leak, no retirement).
// Then the worker side: a worker that reconnects after a transient
// partition is re-adopted at the next repair and its sealed
// partitions serve again.
func TestChaosSealedQueriesSurviveRestart(t *testing.T) {
	g := graphgen.BTC(200, 3, 5)
	cc := startChaosCluster(t, CoordinatorConfig{}, 2, 2, nil)

	_, out, err := runChaosJob(t, cc.coordinator(), "cc-q@j1", "cc", g, 0, 2, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := parseOutput(t, out)
	var vids []uint64
	for vid := range want {
		vids = append(vids, vid)
	}
	sort.Slice(vids, func(i, j int) bool { return vids[i] < vids[j] })
	if len(vids) > 16 {
		vids = vids[:16]
	}

	checkQueries := func(coord *Coordinator, label string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		results, err := coord.QueryVertices(ctx, "cc-q@j1", vids)
		if err != nil {
			return err
		}
		for i, r := range results {
			if !r.Found || r.Value != want[vids[i]] {
				t.Fatalf("%s: vertex %d: got (found=%v, %q), want %q", label, vids[i], r.Found, r.Value, want[vids[i]])
			}
		}
		return nil
	}
	if err := checkQueries(cc.coordinator(), "before-restart"); err != nil {
		t.Fatal(err)
	}

	// Pin an in-flight reader on a worker, then kill the coordinator
	// under it: the reader belongs to the old process's query and must
	// stay valid on the worker until released.
	store := sessionStore(cc.workers[0].session)
	reader, err := store.acquire("cc-q@j1")
	if err != nil {
		t.Fatal(err)
	}

	cc.killCoordinator()
	coord := cc.restartCoordinator(t)

	// The catalog survived in the state dir.
	if _, err := os.Stat(filepath.Join(cc.cfg.StateDir, "catalog.json")); err != nil {
		t.Fatalf("sealed-version catalog not persisted: %v", err)
	}

	// The restarted coordinator re-adopted the sealed version from the
	// rejoining workers' registration reports: reads work immediately,
	// with no job re-run.
	if err := checkQueries(coord, "after-restart"); err != nil {
		t.Fatalf("queries failed after coordinator restart: %v", err)
	}
	if _, err := coord.QueryTopK(context.Background(), "cc-q@j1", 5); err != nil {
		t.Fatalf("top-k after restart: %v", err)
	}

	// The orphaned reader drains cleanly: releasing it leaves the
	// version current (not retired) with zero pinned readers.
	reader.release()
	reader.mu.Lock()
	readers, retired := reader.readers, reader.retired
	reader.mu.Unlock()
	if readers != 0 || retired {
		t.Fatalf("orphaned reader did not drain cleanly: readers=%d retired=%v", readers, retired)
	}
	if !store.Retained("cc-q@j1") {
		t.Fatal("sealed version lost from the worker store")
	}

	// Transient partition: worker 1 drops off and rejoins as a spare;
	// the next submission heals the topology, adopts it, and its sealed
	// partitions must serve again.
	cc.stopWorker(t, 1)
	cc.startWorker(cc.workers[1])
	settleRecovery(t, "rejoiner parked", func() (bool, string) {
		n := coord.Standbys()
		return n == 1, "no standby parked yet"
	})
	if _, _, err := runChaosJob(t, coord, "heal@j1", "cc", graphgen.BTC(40, 2, 3), 0, 0, false, nil); err != nil {
		t.Fatalf("healing submission failed: %v", err)
	}
	settleRecovery(t, "sealed partitions reserved", func() (bool, string) {
		if err := checkQueries(coord, "after-rejoin"); err != nil {
			return false, err.Error()
		}
		return true, ""
	})
}
