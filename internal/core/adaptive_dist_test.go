package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// aggressiveSplit is the adaptive tuning the split tests run under: any
// partition more than 1.5× the mean load is split, however small, so
// the deterministic zipfian-skew fixture forces exactly one mid-job
// split of the hot partition.
func aggressiveSplit(children int) AdaptiveOptions {
	return AdaptiveOptions{
		Enabled:         true,
		SplitFactor:     children,
		SplitSkewFactor: 1.5,
		SplitMinLoad:    1,
		MaxSplits:       1,
		// Keep the straggler detector out of split tests.
		StragglerRatio: 1 << 20,
	}
}

// startDelayCluster is startDistCluster with per-worker superstep-delay
// hooks — the injectable per-phase delay the straggler tests (and the
// adaptive benchmark) use to emulate uneven compute cost.
func startDelayCluster(t *testing.T, cfg CoordinatorConfig, workers, nodesPerWorker int,
	delays map[int]func(vertices, msgs int64) time.Duration) *Coordinator {
	t.Helper()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.Workers = workers
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		coord.Close()
		cancel()
	})
	for i := 0; i < workers; i++ {
		dir := t.TempDir()
		delay := delays[i]
		go func() {
			RunWorker(ctx, WorkerConfig{
				CCAddr:         coord.Addr(),
				BaseDir:        dir,
				Nodes:          nodesPerWorker,
				BuildJob:       distTestBuilder,
				SuperstepDelay: delay,
			})
		}()
	}
	readyCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := coord.WaitReady(readyCtx); err != nil {
		t.Fatalf("cluster never became ready: %v", err)
	}
	return coord
}

// countAdaptive tallies a coordinator's adaptive events by kind.
func countAdaptive(coord *Coordinator, kind string) int {
	n := 0
	for _, ev := range coord.AdaptiveEvents() {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// sealedSplits is how many splits the finished run's table ended with:
// the run is gone, but its sealed result routes queries by that table.
func sealedSplits(t *testing.T, coord *Coordinator, version string) int {
	t.Helper()
	res, err := coord.queryResult(version)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.splits)
}

// TestAdaptiveSplitParityPageRank forces a mid-job hot-partition split
// on the skewed fixture and requires results value-identical to the
// same job on a non-adaptive cluster (PageRank's floating-point sums
// legitimately jitter in the last ulps with message arrival order).
func TestAdaptiveSplitParityPageRank(t *testing.T) {
	g := graphgen.SkewedWebmap(400, 4, 7, 4, 0, 0.5)
	const iterations = 6
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", iterations), g)

	plain := startDelayCluster(t, CoordinatorConfig{}, 2, 2, nil)
	_, plainOut, err := runDistJob(t, plain, "pr-split@j1", "pagerank", g, iterations, 2)
	if err != nil {
		t.Fatal(err)
	}
	compareValues(t, parseOutput(t, plainOut), want, "non-adaptive")
	plain.Close()

	coord := startDelayCluster(t, CoordinatorConfig{Adaptive: aggressiveSplit(3)}, 2, 2, nil)
	stats, out, err := runDistJob(t, coord, "pr-split@j1", "pagerank", g, iterations, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := countAdaptive(coord, "split"); n != 1 {
		t.Fatalf("got %d split events, want exactly 1 (MaxSplits): %+v", n, coord.AdaptiveEvents())
	}
	if stats.FinalState.NumVertices != int64(g.NumVertices()) {
		t.Fatalf("split run lost vertices: %d of %d", stats.FinalState.NumVertices, g.NumVertices())
	}
	compareValues(t, parseOutput(t, out), want, "adaptive-split")
	compareValues(t, parseOutput(t, out), parseOutput(t, plainOut), "adaptive-vs-plain")
}

// TestAdaptiveSplitParityCCExactOutput is the byte-exact variant on
// integer-valued connected components: the split run's dump must be
// byte-identical to the non-adaptive run's.
func TestAdaptiveSplitParityCCExactOutput(t *testing.T) {
	g := graphgen.SkewedWebmap(400, 4, 9, 4, 0, 0.5)
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)

	plain := startDelayCluster(t, CoordinatorConfig{}, 2, 2, nil)
	_, plainOut, err := runDistJob(t, plain, "cc-split@j1", "cc", g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	compareValues(t, parseOutput(t, plainOut), want, "non-adaptive")
	plain.Close()

	coord := startDelayCluster(t, CoordinatorConfig{Adaptive: aggressiveSplit(4)}, 2, 2, nil)
	_, out, err := runDistJob(t, coord, "cc-split@j1", "cc", g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := countAdaptive(coord, "split"); n != 1 {
		t.Fatalf("got %d split events, want exactly 1: %+v", n, coord.AdaptiveEvents())
	}
	if string(out) != string(plainOut) {
		t.Fatalf("split run's output not byte-identical to the non-adaptive run (%d vs %d bytes)",
			len(out), len(plainOut))
	}
}

// TestAdaptiveSplitKillRecovery chains split → checkpoint → worker kill
// → recovery: the forced post-split checkpoint journals the grown
// partition table, so the restore must rebuild the split layout (not
// the base one) on the survivor and still produce correct results.
func TestAdaptiveSplitKillRecovery(t *testing.T) {
	g := graphgen.SkewedWebmap(400, 4, 13, 4, 0, 0.5)
	const iterations = 6
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", iterations), g)

	// Worker 1 kills itself inside superstep 4's compute — after the
	// split (superstep-1 boundary) and its forced checkpoint committed.
	var triggered atomic.Bool
	kc := (*killableCluster)(nil)
	builders := map[int]func(json.RawMessage) (*pregel.Job, error){}
	builders[1] = killerBuilder(func() { kc.kill(1) }, 4, &triggered)
	kc = startKillableCluster(t, CoordinatorConfig{Adaptive: aggressiveSplit(3)}, 2, 2, builders)

	stats, out, err := runDistJob(t, kc.coord, "pr-splitkill@j1", "pagerank", g, iterations, 2)
	if err != nil {
		t.Fatalf("job did not survive the kill: %v", err)
	}
	if !triggered.Load() {
		t.Fatal("failure was never injected")
	}
	if stats.Recoveries == 0 {
		t.Fatal("no recovery recorded")
	}
	if n := countAdaptive(kc.coord, "split"); n != 1 {
		t.Fatalf("got %d split events, want exactly 1: %+v", n, kc.coord.AdaptiveEvents())
	}
	// The restored layout must still be the split one.
	if n := sealedSplits(t, kc.coord, "pr-splitkill@j1"); n != 1 {
		t.Fatalf("recovery restored %d splits, want 1 (manifest journal lost the split table)", n)
	}
	compareValues(t, parseOutput(t, out), want, "split-after-recovery")
	if stats.FinalState.Superstep != iterations {
		t.Fatalf("final superstep %d, want %d", stats.FinalState.Superstep, iterations)
	}
}

// TestAdaptiveSplitSurvivesCoordinatorRestart kills the coordinator
// after a split committed (and was journaled by its forced checkpoint)
// but before the job finished: a coordinator restarted on the same
// state dir must resume from the manifest, re-adopt the split partition
// table, and produce output byte-identical to a non-adaptive run.
func TestAdaptiveSplitSurvivesCoordinatorRestart(t *testing.T) {
	g := graphgen.SkewedWebmap(400, 4, 9, 4, 0, 0.5)
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)

	plain := startDelayCluster(t, CoordinatorConfig{}, 2, 2, nil)
	_, plainOut, err := runDistJob(t, plain, "cc-ccrestart@j1", "cc", g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	compareValues(t, parseOutput(t, plainOut), want, "non-adaptive")
	plain.Close()

	cc := startChaosCluster(t, CoordinatorConfig{Adaptive: aggressiveSplit(3)}, 2, 2, nil)
	first := cc.coordinator()

	// Kill the coordinator as superstep 2 commits: the only durable
	// manifest is the forced post-split checkpoint at superstep 1, so
	// the resume rides entirely on the journaled split table.
	var killed atomic.Bool
	_, _, err = runChaosJob(t, first, "cc-ccrestart@j1", "cc", g, 0, 2, false, func(ss int64) {
		if ss == 2 && killed.CompareAndSwap(false, true) {
			cc.killCoordinator()
		}
	})
	if !killed.Load() {
		t.Fatal("kill was never injected (job finished before superstep 2?)")
	}
	if err == nil {
		t.Fatal("job survived its own coordinator being killed")
	}
	if n := countAdaptive(first, "split"); n != 1 {
		t.Fatalf("got %d split events before the kill, want 1: %+v", n, first.AdaptiveEvents())
	}

	coord := cc.restartCoordinator(t)
	stats, out, err := runChaosJob(t, coord, "cc-ccrestart@j1", "cc", g, 0, 2, true, nil)
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	if stats.Recoveries == 0 {
		t.Fatal("restarted coordinator did not resume from the committed checkpoint")
	}
	if n := sealedSplits(t, coord, "cc-ccrestart@j1"); n != 1 {
		t.Fatalf("restarted coordinator adopted %d splits, want 1 (state dir lost the split journal)", n)
	}
	// MaxSplits was reached before the restart: the resumed run must
	// not split again.
	if n := countAdaptive(coord, "split"); n != 0 {
		t.Fatalf("resumed run committed %d additional splits, want 0", n)
	}
	if string(out) != string(plainOut) {
		t.Fatalf("resumed output not byte-identical to the non-adaptive run (%d vs %d bytes)",
			len(out), len(plainOut))
	}
}

// TestAdaptiveStragglerRelief injects a fixed per-superstep delay into
// one worker: the detector must flag it after StragglerPatience slow
// supersteps and migrate its heaviest node away — exactly once (the
// relieved worker keeps one node, and the cooldown plus the ≥2-nodes
// guard prevent flapping) — with results identical to an unperturbed
// run.
func TestAdaptiveStragglerRelief(t *testing.T) {
	g := graphgen.Webmap(300, 4, 11)
	const iterations = 8
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", iterations), g)

	plain := startDelayCluster(t, CoordinatorConfig{}, 2, 2, nil)
	_, plainOut, err := runDistJob(t, plain, "pr-strag@j1", "pagerank", g, iterations, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain.Close()

	opts := AdaptiveOptions{
		Enabled:           true,
		StragglerRatio:    3,
		StragglerPatience: 2,
		ReliefCooldown:    3,
		// Keep the split planner out of this test.
		SplitMinLoad: 1 << 40,
	}
	delays := map[int]func(vertices, msgs int64) time.Duration{
		1: func(vertices, msgs int64) time.Duration { return 100 * time.Millisecond },
	}
	coord := startDelayCluster(t, CoordinatorConfig{Adaptive: opts}, 2, 2, delays)
	_, out, err := runDistJob(t, coord, "pr-strag@j1", "pagerank", g, iterations, 0)
	if err != nil {
		t.Fatal(err)
	}
	reliefs := 0
	for _, ev := range coord.RebalanceEvents() {
		if ev.Kind == "relief" {
			reliefs++
		}
	}
	if reliefs != 1 {
		t.Fatalf("got %d relief migrations, want exactly 1 (0 = detector never fired; >1 = flapping): %+v",
			reliefs, coord.RebalanceEvents())
	}
	if n := countAdaptive(coord, "relief"); n != 1 {
		t.Fatalf("got %d relief events in the adaptive log, want 1: %+v", n, coord.AdaptiveEvents())
	}
	compareValues(t, parseOutput(t, out), want, "relieved")
	compareValues(t, parseOutput(t, out), parseOutput(t, plainOut), "relieved-vs-unperturbed")
}

// TestAutoJoinPlansAlikeEverywhere: the join is planned by one rule, so
// an AutoJoin job runs the same join sequence in process, on a cluster
// and on an adaptive cluster. The graph puts superstep 2 where the
// planner probes but a rule on each ratio alone (msgs/|V| under 0.2)
// would not: 220 of 1000 vertices receive a message, none is live.
func TestAutoJoinPlansAlikeEverywhere(t *testing.T) {
	const n, fan = 1000, 220
	g := &graphgen.Graph{Adj: map[uint64][]uint64{}}
	for v := uint64(1); v <= n; v++ {
		g.Adj[v] = nil
	}
	for leaf := uint64(2); leaf < 2+fan; leaf++ {
		g.Adj[1] = append(g.Adj[1], leaf)
		g.Adj[leaf] = []uint64{2 + fan}
	}
	want := referenceValues(t, algorithms.NewSSSPJob("sssp", "", "", 1), g)
	wantPlans := []string{"fullouter", "leftouter", "leftouter"}
	check := func(label string, stats *JobStats, got map[uint64]string) {
		t.Helper()
		var plans []string
		for _, st := range stats.SuperstepStats {
			plans = append(plans, st.Plan)
		}
		if !reflect.DeepEqual(plans, wantPlans) {
			t.Fatalf("%s: plans %v, want %v", label, plans, wantPlans)
		}
		exactValues(t, got, want, label)
	}

	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	job := algorithms.NewSSSPJob("auto", "/in/g", "/out/auto", 1)
	job.Join = pregel.AutoJoin
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	check("in process", stats, readOutputValues(t, rt, "/out/auto"))

	builders := map[int]func(json.RawMessage) (*pregel.Job, error){0: sparseBuilder(nil), 1: sparseBuilder(nil)}
	for _, adaptive := range []bool{false, true} {
		kc := startKillableCluster(t, CoordinatorConfig{Adaptive: AdaptiveOptions{Enabled: adaptive}}, 2, 1, builders)
		label := fmt.Sprintf("cluster, adaptive=%v", adaptive)
		stats, got := runSparseDist(t, kc.coord, "auto", "auto", g, 0, nil)
		check(label, stats, got)
		if switches, want := countAdaptive(kc.coord, "plan-switch"), map[bool]int{false: 0, true: 1}[adaptive]; switches != want {
			t.Fatalf("%s: %d plan-switch events, want %d", label, switches, want)
		}
	}
}
