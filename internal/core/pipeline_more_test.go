package core

import (
	"context"
	"testing"

	"pregelix/internal/graphgen"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// TestPipelineMatchesSeparateJobs: the pipelined job array must compute
// exactly what separate jobs with DFS round-trips compute.
func TestPipelineMatchesSeparateJobs(t *testing.T) {
	g := graphgen.Chain(60, 6, 4)

	// Pipelined.
	rtA := newTestRuntime(t, 2)
	defer rtA.Close()
	putGraph(t, rtA, "/in/chain", g)
	var jobs []*pregel.Job
	const rounds = 4
	for r := 0; r < rounds; r++ {
		jobs = append(jobs, algorithms.NewPathMergeRoundJob("pm", "/in/chain", "/out/final", r))
	}
	if _, err := rtA.RunPipeline(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	piped := readOutputValues(t, rtA, "/out/final")

	// Separate jobs, each dumping and reloading through the DFS.
	rtB := newTestRuntime(t, 2)
	defer rtB.Close()
	putGraph(t, rtB, "/round0", g)
	for r := 0; r < rounds; r++ {
		in := "/round" + string(rune('0'+r))
		out := "/round" + string(rune('1'+r))
		job := algorithms.NewPathMergeRoundJob("pm-sep", in, out, r)
		if _, err := rtB.Run(context.Background(), job); err != nil {
			t.Fatal(err)
		}
	}
	separate := readOutputValues(t, rtB, "/round"+string(rune('0'+rounds)))

	if len(piped) != len(separate) {
		t.Fatalf("pipelined %d vertices, separate %d", len(piped), len(separate))
	}
	for id := range separate {
		if _, ok := piped[id]; !ok {
			t.Fatalf("vertex %d missing from pipelined result", id)
		}
	}
}

// TestPipelineChangesAlgorithm: a pipeline may chain different programs
// over the same vertex bits (the Genomix pattern chains six cleaning
// algorithms); here CC follows a sampling pass.
func TestPipelineHeterogeneousJobs(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.BTC(120, 4, 6)
	putGraph(t, rt, "/in/g", g)

	// Job 1: every vertex sets value = its own id (identity labeling).
	// Job 2: CC label propagation over the same Int64 bits.
	label := &pregel.Job{
		Name: "label",
		Program: pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			*v.Value.(*pregel.Int64) = pregel.Int64(v.ID)
			v.VoteToHalt()
			return nil
		}),
		Codec:     pregel.Codec{NewVertexValue: pregel.NewInt64, NewMessage: pregel.NewInt64},
		InputPath: "/in/g",
	}
	cc := algorithms.NewConnectedComponentsJob("cc-pipe", "/in/g", "/out/cc")
	all, err := rt.RunPipeline(context.Background(), []*pregel.Job{label, cc})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("stats: %d", len(all))
	}
	got := readOutputValues(t, rt, "/out/cc")
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)
	compareValues(t, got, want, "pipelined-cc")
}

// TestPipelineLeftOuterJoinSecondJob: a pipelined job inherits its
// predecessor's partitions with the Msg and Vid state dropped, and like
// any job it starts with every vertex active. Under the left-outer-join
// hint its first superstep used to probe that empty Vid index, compute
// nothing and halt; superstep 1 scans under every plan now.
func TestPipelineLeftOuterJoinSecondJob(t *testing.T) {
	g := graphgen.BTC(120, 4, 6)
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)
	for _, plan := range sparsePlans {
		rt := newTestRuntime(t, 2)
		putGraph(t, rt, "/in/g", g)
		label := &pregel.Job{
			Name: "label",
			Program: pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
				*v.Value.(*pregel.Int64) = pregel.Int64(v.ID)
				v.VoteToHalt()
				return nil
			}),
			Codec:     pregel.Codec{NewVertexValue: pregel.NewInt64, NewMessage: pregel.NewInt64},
			InputPath: "/in/g",
		}
		cc := algorithms.NewConnectedComponentsJob("cc-"+plan, "/in/g", "/out/cc")
		if err := cc.ApplyHints(plan, "", ""); err != nil {
			t.Fatal(err)
		}
		all, err := rt.RunPipeline(context.Background(), []*pregel.Job{label, cc})
		if err != nil {
			t.Fatalf("%s: %v", plan, err)
		}
		if all[1].Supersteps < 2 || all[1].TotalMessages == 0 {
			t.Errorf("%s: second job ran %d supersteps and sent %d messages", plan, all[1].Supersteps, all[1].TotalMessages)
		}
		exactValues(t, readOutputValues(t, rt, "/out/cc"), want, "pipelined cc under "+plan)
		rt.Close()
	}
}
