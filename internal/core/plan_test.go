package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"pregelix/internal/graphgen"
	"pregelix/internal/tuple"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// Tests of the superstep plan a job keeps for its whole run: compiled
// once per partition table, armed once per superstep, and closed — its
// goroutines gone — however the run ends.

// runReleases runs one job on a fresh 2-node runtime and requires the
// process to be back at its goroutine count and leased frames once the
// run has returned, whether it succeeded or not. It returns the run's
// error for the caller to judge.
func runReleases(t *testing.T, g *graphgen.Graph, job func(rt *Runtime) *pregel.Job, ctx context.Context) (*JobStats, error) {
	t.Helper()
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	j := job(rt)
	goroutines, leases := runtime.NumGoroutine(), tuple.LeasedFrames()
	stats, err := rt.Run(ctx, j)
	settleRecovery(t, "goroutines", func() (bool, string) {
		now := runtime.NumGoroutine()
		return now <= goroutines, fmt.Sprintf("%d goroutines, %d before the run", now, goroutines)
	})
	settleRecovery(t, "frame leases", func() (bool, string) {
		now := tuple.LeasedFrames()
		return now == leases, fmt.Sprintf("%d leased frames, %d before the run", now, leases)
	})
	return stats, err
}

func TestSuperstepPlanReleasedAtJobEnd(t *testing.T) {
	chain := graphgen.Chain(60, 0, 1)
	sssp := func(name string) *pregel.Job { return algorithms.NewSSSPJob(name, "/in/g", "/out/"+name, 1) }

	t.Run("completes", func(t *testing.T) {
		stats, err := runReleases(t, chain, func(*Runtime) *pregel.Job { return sssp("done") }, context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Supersteps < 60 {
			t.Fatalf("ran %d supersteps down a 60-vertex chain", stats.Supersteps)
		}
	})

	t.Run("compute error", func(t *testing.T) {
		_, err := runReleases(t, chain, func(*Runtime) *pregel.Job {
			j := sssp("boom")
			inner := j.Program
			j.Program = pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
				if ctx.Superstep() == 5 {
					return errBoom
				}
				return inner.Compute(ctx, v, msgs)
			})
			return j
		}, context.Background())
		if !errors.Is(err, errBoom) {
			t.Fatalf("want the program's error, got %v", err)
		}
	})

	t.Run("cancelled mid-superstep", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		_, err := runReleases(t, chain, func(*Runtime) *pregel.Job {
			j := sssp("cancel")
			watched(j, func(ss int64) {
				if ss == 7 {
					cancel()
				}
			})
			return j
		}, ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want the cancellation, got %v", err)
		}
	})

	t.Run("node lost and recovered", func(t *testing.T) {
		triggered := false
		stats, err := runReleases(t, chain, func(rt *Runtime) *pregel.Job {
			j := sssp("lost")
			j.CheckpointEvery = 3
			j.Program = &failAfterProgram{inner: j.Program, node: rt.Cluster.Nodes()[1], atStep: 8, triggered: &triggered}
			return j
		}, context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !triggered || stats.Recoveries != 1 {
			t.Fatalf("triggered=%v recoveries=%d, want one recovery", triggered, stats.Recoveries)
		}
	})
}

// TestSuperstepPlanCompiledPerShape: SSSP down a chain compiles one plan
// and runs it under superstep 1's full outer join and the left outer
// join of every later superstep alike; a recovery, which runs under a
// new attempt on a new placement, compiles one more.
func TestSuperstepPlanCompiledPerShape(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", graphgen.Chain(2000, 0, 1))

	before := superstepPlans.Load()
	stats, err := rt.Run(context.Background(), algorithms.NewSSSPJob("plans", "/in/g", "", 1))
	if err != nil {
		t.Fatal(err)
	}
	if n := superstepPlans.Load() - before; n != 1 {
		t.Fatalf("%d supersteps compiled %d plans, want 1 for both joins", stats.Supersteps, n)
	}
	for _, st := range stats.SuperstepStats[1:] {
		if st.Plan != pregel.LeftOuterJoin.String() {
			t.Fatalf("superstep %d ran %s", st.Superstep, st.Plan)
		}
	}

	rt2 := newTestRuntime(t, 3)
	defer rt2.Close()
	putGraph(t, rt2, "/in/g", graphgen.Chain(40, 0, 1))
	before = superstepPlans.Load()
	if _, err := rt2.Run(context.Background(), algorithms.NewSSSPJob("clean", "/in/g", "", 1)); err != nil {
		t.Fatal(err)
	}
	clean := superstepPlans.Load() - before

	job := algorithms.NewSSSPJob("recover", "/in/g", "", 1)
	job.CheckpointEvery = 2
	triggered := false
	job.Program = &failAfterProgram{inner: job.Program, node: rt2.Cluster.Nodes()[2], atStep: 9, triggered: &triggered}
	before = superstepPlans.Load()
	stats, err = rt2.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !triggered || stats.Recoveries != 1 {
		t.Fatalf("triggered=%v recoveries=%d, want one recovery", triggered, stats.Recoveries)
	}
	if n := superstepPlans.Load() - before; n != clean+1 {
		t.Fatalf("the recovered run compiled %d plans, the clean one %d: want one more", n, clean)
	}
}

// TestSuperstepPlanSplitCompilesNewPlan: a forced hot-partition split
// reshapes the partition table, so every worker compiles a new plan
// after it; without the split each worker compiles one plan for the job.
func TestSuperstepPlanSplitCompilesNewPlan(t *testing.T) {
	g := graphgen.SkewedWebmap(400, 4, 7, 4, 0, 0.5)
	const workers, iterations = 2, 6

	plain := startDelayCluster(t, CoordinatorConfig{}, workers, 2, nil)
	before := superstepPlans.Load()
	if _, _, err := runDistJob(t, plain, "pr-plan@j1", "pagerank", g, iterations, 2); err != nil {
		t.Fatal(err)
	}
	if n := superstepPlans.Load() - before; n != workers {
		t.Fatalf("%d workers compiled %d plans for a job of one shape", workers, n)
	}
	plain.Close()

	coord := startDelayCluster(t, CoordinatorConfig{Adaptive: aggressiveSplit(3)}, workers, 2, nil)
	before = superstepPlans.Load()
	if _, _, err := runDistJob(t, coord, "pr-plan@j1", "pagerank", g, iterations, 2); err != nil {
		t.Fatal(err)
	}
	if n := countAdaptive(coord, "split"); n != 1 {
		t.Fatalf("got %d split events, want 1", n)
	}
	if n := superstepPlans.Load() - before; n != 2*workers {
		t.Fatalf("%d workers compiled %d plans across one split, want %d", workers, n, 2*workers)
	}
}

// TestSuperstepRoundStatsAreFresh: every left-outer-join superstep down a
// chain moves one message and rewrites one vertex, so each reports the
// same traffic and run-layer bytes; counters carried over from earlier
// rounds would make them grow.
func TestSuperstepRoundStatsAreFresh(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", graphgen.Chain(2000, 0, 1))
	stats, err := rt.Run(context.Background(), algorithms.NewSSSPJob("fresh", "/in/g", "", 1))
	if err != nil {
		t.Fatal(err)
	}
	// Superstep 1 scans; the chain's last vertex has no edge, so the last
	// superstep sends nothing and rewrites a shorter record.
	steps := stats.SuperstepStats[1 : len(stats.SuperstepStats)-1]
	first := steps[0]
	if first.NetworkTuples == 0 || first.IOBytes == 0 {
		t.Fatalf("superstep %d moved nothing: %+v", first.Superstep, first)
	}
	for _, st := range steps {
		if st.NetworkTuples != first.NetworkTuples || st.NetworkBytes != first.NetworkBytes || st.IOBytes != first.IOBytes {
			t.Fatalf("superstep %d: %d tuples, %d bytes, %d I/O bytes; superstep %d: %d, %d, %d",
				st.Superstep, st.NetworkTuples, st.NetworkBytes, st.IOBytes,
				first.Superstep, first.NetworkTuples, first.NetworkBytes, first.IOBytes)
		}
	}
}
