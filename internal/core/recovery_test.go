package core

import (
	"context"
	"testing"

	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// failAfterProgram wraps a program and kills a node at a chosen
// superstep (failure injection for recovery testing).
type failAfterProgram struct {
	inner     pregel.Program
	node      *hyracks.NodeController
	atStep    int64
	triggered *bool
}

func (f *failAfterProgram) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	if ctx.Superstep() == f.atStep && !*f.triggered {
		*f.triggered = true
		f.node.Fail()
	}
	return f.inner.Compute(ctx, v, msgs)
}

func TestCheckpointRecoveryAfterNodeFailure(t *testing.T) {
	rt := newTestRuntime(t, 3)
	defer rt.Close()
	g := graphgen.Webmap(200, 4, 5)
	putGraph(t, rt, "/in/g", g)

	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", 6), g)

	job := algorithms.NewPageRankJob("pr-recover", "/in/g", "/out/pr", 6)
	job.CheckpointEvery = 2
	triggered := false
	job.Program = &failAfterProgram{
		inner:     job.Program,
		node:      rt.Cluster.Nodes()[1],
		atStep:    4,
		triggered: &triggered,
	}

	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !triggered {
		t.Fatal("failure was never injected")
	}
	if stats.Recoveries == 0 {
		t.Fatal("no recovery recorded")
	}
	if stats.Checkpoints == 0 {
		t.Fatal("no checkpoints recorded")
	}
	got := readOutputValues(t, rt, "/out/pr")
	compareValues(t, got, want, "pagerank-after-recovery")
}

// TestRunReclaimsJobDFSState checks a finished run leaves nothing under
// its DFS prefix — checkpoint images, manifests and the global-state
// file only serve recovery inside the run — while its output stays.
func TestRunReclaimsJobDFSState(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", graphgen.Webmap(120, 3, 5))

	job := algorithms.NewPageRankJob("pr-reclaim", "/in/g", "/out/pr", 5)
	job.CheckpointEvery = 2
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints == 0 {
		t.Fatal("no checkpoints recorded")
	}
	if left := rt.DFS.List("/pregelix/pr-reclaim/"); len(left) != 0 {
		t.Fatalf("finished run left %d DFS files behind: %v", len(left), left)
	}
	if !rt.DFS.Exists("/out/pr") {
		t.Fatal("the sweep took the job's output with it")
	}
}

func TestRecoveryWithLeftOuterJoinPlan(t *testing.T) {
	rt := newTestRuntime(t, 3)
	defer rt.Close()
	g := graphgen.BTC(150, 5, 13)
	putGraph(t, rt, "/in/g", g)

	want := referenceValues(t, algorithms.NewSSSPJob("sssp", "", "", 1), g)

	job := algorithms.NewSSSPJob("sssp-recover", "/in/g", "/out/sssp", 1)
	job.CheckpointEvery = 1
	triggered := false
	job.Program = &failAfterProgram{
		inner:     job.Program,
		node:      rt.Cluster.Nodes()[2],
		atStep:    3,
		triggered: &triggered,
	}
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !triggered || stats.Recoveries == 0 {
		t.Fatalf("triggered=%v recoveries=%d", triggered, stats.Recoveries)
	}
	got := readOutputValues(t, rt, "/out/sssp")
	compareValues(t, got, want, "sssp-after-recovery")
}

func TestFailureWithoutCheckpointIsFatal(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.Webmap(50, 3, 1)
	putGraph(t, rt, "/in/g", g)

	job := algorithms.NewPageRankJob("pr-fatal", "/in/g", "/out/pr", 5)
	triggered := false
	job.Program = &failAfterProgram{
		inner: job.Program, node: rt.Cluster.Nodes()[0], atStep: 3, triggered: &triggered,
	}
	if _, err := rt.Run(context.Background(), job); err == nil {
		t.Fatal("expected failure without checkpoints to be fatal")
	}
}

// TestApplicationErrorIsForwarded: the failure manager must forward
// application exceptions to the user, not attempt recovery.
func TestApplicationErrorIsForwarded(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.Webmap(20, 3, 1)
	putGraph(t, rt, "/in/g", g)

	job := &pregel.Job{
		Name: "app-error",
		Program: pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			if ctx.Superstep() == 2 && uint64(v.ID) == 3 {
				return errBoom
			}
			t := pregel.Bool(true)
			for _, e := range v.Edges {
				ctx.SendMessage(e.Dest, &t)
			}
			return nil
		}),
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewBool,
			NewMessage:     pregel.NewBool,
		},
		InputPath:       "/in/g",
		CheckpointEvery: 1,
		MaxSupersteps:   5,
	}
	stats, err := rt.Run(context.Background(), job)
	if err == nil {
		t.Fatal("expected application error")
	}
	if stats != nil && stats.Recoveries != 0 {
		t.Fatal("application errors must not trigger recovery")
	}
}

var errBoom = &appError{}

type appError struct{}

func (*appError) Error() string { return "application boom" }

func TestJobPipelining(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.Chain(30, 3, 2)
	putGraph(t, rt, "/in/chain", g)

	// Pipeline several path-merge rounds as Genomix chains its graph
	// cleaning algorithms (Section 5.6); only the last job dumps.
	var jobs []*pregel.Job
	for round := 0; round < 5; round++ {
		j := algorithms.NewPathMergeRoundJob("pm-pipe", "/in/chain", "/out/pm", round)
		jobs = append(jobs, j)
	}
	all, err := rt.RunPipeline(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("expected 5 job stats, got %d", len(all))
	}
	// Loading happened once, dumping once.
	if all[0].LoadDuration == 0 {
		t.Fatal("first job must load")
	}
	for i := 1; i < 5; i++ {
		if all[i].LoadDuration != 0 {
			t.Fatalf("job %d must not reload", i)
		}
	}
	final := all[4].FinalState
	if final.NumVertices >= 30 {
		t.Fatalf("pipelined path merge did not shrink graph: %d vertices", final.NumVertices)
	}
	if !rt.DFS.Exists("/out/pm") {
		t.Fatal("final output missing")
	}
}

func TestOutOfCoreExecution(t *testing.T) {
	// A severely memory-constrained cluster must still complete with
	// correct results by spilling (the paper's central claim).
	rt, err := NewRuntime(Options{
		BaseDir:           t.TempDir(),
		Nodes:             2,
		PartitionsPerNode: 2,
		NodeConfig: hyracks.NodeConfig{
			RAMBytes:         256 << 10, // 256 KiB per "machine"
			BufferCacheBytes: 64 << 10,
			OperatorMemBytes: 16 << 10,
			PageSize:         2048,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	g := graphgen.Webmap(2000, 8, 77)
	putGraph(t, rt, "/in/big", g)

	job := algorithms.NewPageRankJob("pr-ooc", "/in/big", "/out/pr", 4)
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	var spills int64
	for _, ss := range stats.SuperstepStats {
		spills += ss.IOBytes
	}
	if spills == 0 {
		t.Fatal("expected spill I/O under memory pressure")
	}
	got := readOutputValues(t, rt, "/out/pr")
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", 4), g)
	compareValues(t, got, want, "pagerank-ooc")
}

func TestAggregatorAcrossSupersteps(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.Webmap(40, 3, 3)
	putGraph(t, rt, "/in/g", g)

	// Each vertex contributes 1 per superstep; next superstep every
	// vertex must observe the previous count (= numVertices).
	job := &pregel.Job{
		Name: "agg",
		Program: pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			if ctx.Superstep() > 1 {
				got := ctx.GlobalAggregate()
				if got == nil {
					return errBoom
				}
				if int64(*got.(*pregel.Int64)) != ctx.NumVertices() {
					return errBoom
				}
			}
			one := pregel.Int64(1)
			ctx.Aggregate(&one)
			if ctx.Superstep() >= 3 {
				v.VoteToHalt()
			} else {
				keep := pregel.Int64(0)
				ctx.SendMessage(v.ID, &keep) // self-message keeps vertex live
			}
			return nil
		}),
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewInt64,
			NewMessage:     pregel.NewInt64,
		},
		Aggregator: algorithms.SumInt64Aggregator{},
		InputPath:  "/in/g",
	}
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	var final pregel.Int64
	if err := final.Unmarshal(stats.FinalState.Aggregate); err != nil {
		t.Fatal(err)
	}
	if int64(final) != stats.FinalState.NumVertices {
		t.Fatalf("final aggregate %d, want %d", final, stats.FinalState.NumVertices)
	}
}

func TestMessageToNonexistentVertexCreatesIt(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := &graphgen.Graph{Adj: map[uint64][]uint64{1: {999}, 2: nil}}
	putGraph(t, rt, "/in/g", g)

	job := &pregel.Job{
		Name: "ghost",
		Program: pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			val := v.Value.(*pregel.Int64)
			if ctx.Superstep() == 1 && uint64(v.ID) == 1 {
				m := pregel.Int64(42)
				ctx.SendMessage(999, &m)
			}
			if len(msgs) > 0 {
				*val = *msgs[0].(*pregel.Int64)
			}
			v.VoteToHalt()
			return nil
		}),
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewInt64,
			NewMessage:     pregel.NewInt64,
		},
		InputPath:  "/in/g",
		OutputPath: "/out/ghost",
	}
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalState.NumVertices != 3 {
		t.Fatalf("vertices %d, want 3 (999 materialized)", stats.FinalState.NumVertices)
	}
	got := readOutputValues(t, rt, "/out/ghost")
	if got[999] != "42" {
		t.Fatalf("vertex 999 value %q, want 42", got[999])
	}
}

func TestVertexMutations(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := &graphgen.Graph{Adj: map[uint64][]uint64{1: nil, 2: nil, 3: nil}}
	putGraph(t, rt, "/in/g", g)

	// Superstep 1: vertex 1 adds vertex 100, vertex 2 removes vertex 3.
	job := &pregel.Job{
		Name: "mutate",
		Program: pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			if ctx.Superstep() == 1 {
				switch uint64(v.ID) {
				case 1:
					nv := pregel.Int64(7)
					ctx.AddVertex(&pregel.Vertex{ID: 100, Value: &nv})
				case 2:
					ctx.RemoveVertex(3)
				}
			}
			v.VoteToHalt()
			return nil
		}),
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewInt64,
			NewMessage:     pregel.NewInt64,
		},
		InputPath:  "/in/g",
		OutputPath: "/out/mutate",
	}
	if _, err := rt.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	got := readOutputValues(t, rt, "/out/mutate")
	if _, exists := got[3]; exists {
		t.Fatal("vertex 3 not removed")
	}
	if got[100] != "7" {
		t.Fatalf("vertex 100 = %q, want 7", got[100])
	}
	if len(got) != 3 { // 1, 2, 100
		t.Fatalf("vertex set: %v", got)
	}
}

// TestVertexMutationsWithLOJPlan covers the resolve operator's Vid index
// maintenance: vertices added under the left-outer-join plan must be
// live (probed) in the following superstep.
func TestVertexMutationsWithLOJPlan(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := &graphgen.Graph{Adj: map[uint64][]uint64{1: nil, 2: nil}}
	putGraph(t, rt, "/in/g", g)

	job := &pregel.Job{
		Name: "mutate-loj",
		Program: pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			val := v.Value.(*pregel.Int64)
			switch {
			case ctx.Superstep() == 1 && uint64(v.ID) == 1:
				nv := pregel.Int64(0)
				ctx.AddVertex(&pregel.Vertex{ID: 50, Value: &nv})
			case ctx.Superstep() == 2 && uint64(v.ID) == 50:
				// The added vertex must be computed (live) here.
				*val = 99
			}
			if ctx.Superstep() >= 2 {
				v.VoteToHalt()
			}
			return nil
		}),
		Codec:      pregel.Codec{NewVertexValue: pregel.NewInt64, NewMessage: pregel.NewInt64},
		Join:       pregel.LeftOuterJoin,
		InputPath:  "/in/g",
		OutputPath: "/out/mloj",
	}
	if _, err := rt.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	got := readOutputValues(t, rt, "/out/mloj")
	if got[50] != "99" {
		t.Fatalf("added vertex not live under LOJ: value %q", got[50])
	}
}
