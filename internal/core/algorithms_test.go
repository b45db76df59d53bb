package core

import (
	"context"
	"fmt"
	"testing"

	"pregelix/internal/graphgen"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

func TestPageRankMatchesReference(t *testing.T) {
	rt := newTestRuntime(t, 3)
	defer rt.Close()
	g := graphgen.Webmap(300, 5, 42)
	putGraph(t, rt, "/in/webmap", g)

	job := algorithms.NewPageRankJob("pr", "/in/webmap", "/out/pr", 5)
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 5 {
		t.Fatalf("supersteps %d want 5", stats.Supersteps)
	}
	got := readOutputValues(t, rt, "/out/pr")
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", 5), g)
	compareValues(t, got, want, "pagerank")
}

func TestSSSPMatchesReferenceLOJ(t *testing.T) {
	rt := newTestRuntime(t, 3)
	defer rt.Close()
	g := graphgen.BTC(250, 6, 7)
	putGraph(t, rt, "/in/btc", g)

	job := algorithms.NewSSSPJob("sssp", "/in/btc", "/out/sssp", 1)
	if _, err := rt.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	got := readOutputValues(t, rt, "/out/sssp")
	want := referenceValues(t, algorithms.NewSSSPJob("sssp", "", "", 1), g)
	compareValues(t, got, want, "sssp-loj")
}

func TestConnectedComponentsMatchesReference(t *testing.T) {
	rt := newTestRuntime(t, 3)
	defer rt.Close()
	g := graphgen.BTC(200, 4, 11)
	putGraph(t, rt, "/in/btc", g)

	job := algorithms.NewConnectedComponentsJob("cc", "/in/btc", "/out/cc")
	if _, err := rt.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	got := readOutputValues(t, rt, "/out/cc")
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)
	compareValues(t, got, want, "cc")
}

// TestAllSixteenPhysicalPlansAgree runs SSSP under every combination of
// the plan hints (2 joins x 2 group-bys x 2 connectors x 2 storages —
// the sixteen tailored executions of Section 5.8 — and the planner's
// AutoJoin with each of the other eight) and requires identical results.
func TestAllSixteenPhysicalPlansAgree(t *testing.T) {
	g := graphgen.BTC(150, 5, 3)
	want := referenceValues(t, algorithms.NewSSSPJob("sssp", "", "", 1), g)

	for _, join := range []pregel.JoinKind{pregel.FullOuterJoin, pregel.LeftOuterJoin, pregel.AutoJoin} {
		for _, gb := range []pregel.GroupByKind{pregel.SortGroupBy, pregel.HashSortGroupBy} {
			for _, conn := range []pregel.ConnectorKind{pregel.UnmergeConnector, pregel.MergeConnector} {
				for _, st := range []pregel.StorageKind{pregel.BTreeStorage, pregel.LSMStorage} {
					name := fmt.Sprintf("%v-%v-%v-%v", join, gb, conn, st)
					t.Run(name, func(t *testing.T) {
						rt := newTestRuntime(t, 2)
						defer rt.Close()
						putGraph(t, rt, "/in/g", g)
						job := algorithms.NewSSSPJob("sssp-"+name, "/in/g", "/out/"+name, 1)
						job.Join, job.GroupBy, job.Connector, job.Storage = join, gb, conn, st
						if _, err := rt.Run(context.Background(), job); err != nil {
							t.Fatal(err)
						}
						got := readOutputValues(t, rt, "/out/"+name)
						compareValues(t, got, want, name)
					})
				}
			}
		}
	}
}

func TestTriangleCountAggregate(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	// A 4-clique has exactly 4 triangles.
	g := &graphgen.Graph{Adj: map[uint64][]uint64{
		1: {2, 3, 4}, 2: {1, 3, 4}, 3: {1, 2, 4}, 4: {1, 2, 3},
		5: {6}, 6: {5},
	}}
	putGraph(t, rt, "/in/clique", g)
	job := algorithms.NewTriangleCountJob("tri", "/in/clique", "/out/tri")
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	var total pregel.Int64
	if err := total.Unmarshal(stats.FinalState.Aggregate); err != nil {
		t.Fatal(err)
	}
	if total != 4 {
		t.Fatalf("triangles = %d, want 4", total)
	}
	// Cross-check against the oracle.
	eng := refEngine(t, algorithms.NewTriangleCountJob("tri", "", ""), g)
	var refTotal pregel.Int64
	if err := refTotal.Unmarshal(eng); err != nil {
		t.Fatal(err)
	}
	if refTotal != total {
		t.Fatalf("reference disagrees: %d vs %d", refTotal, total)
	}
}

func TestMaximalCliquesAggregate(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := &graphgen.Graph{Adj: map[uint64][]uint64{
		1: {2, 3}, 2: {1, 3}, 3: {1, 2, 4}, 4: {3, 5}, 5: {4},
	}}
	putGraph(t, rt, "/in/g", g)
	job := algorithms.NewMaximalCliquesJob("mc", "/in/g", "/out/mc")
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	var maxClique pregel.Int64
	if err := maxClique.Unmarshal(stats.FinalState.Aggregate); err != nil {
		t.Fatal(err)
	}
	if maxClique != 3 { // the triangle {1,2,3}
		t.Fatalf("max clique = %d, want 3", maxClique)
	}
}

func TestReachabilityAndBFS(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	// 1→2→3, 4 isolated.
	g := &graphgen.Graph{Adj: map[uint64][]uint64{1: {2}, 2: {3}, 3: nil, 4: nil}}
	putGraph(t, rt, "/in/chain", g)

	reach := algorithms.NewReachabilityJob("reach", "/in/chain", "/out/reach", 1)
	if _, err := rt.Run(context.Background(), reach); err != nil {
		t.Fatal(err)
	}
	got := readOutputValues(t, rt, "/out/reach")
	want := map[uint64]string{1: "true", 2: "true", 3: "true", 4: "false"}
	compareValues(t, got, want, "reachability")

	bfs := algorithms.NewBFSTreeJob("bfs", "/in/chain", "/out/bfs", 1)
	if _, err := rt.Run(context.Background(), bfs); err != nil {
		t.Fatal(err)
	}
	got = readOutputValues(t, rt, "/out/bfs")
	want = map[uint64]string{1: "1", 2: "1", 3: "2", 4: "-1"}
	compareValues(t, got, want, "bfs")
}

func TestPathMergeCollapsesChains(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.Chain(20, 0, 1)
	putGraph(t, rt, "/in/chain", g)
	job := algorithms.NewPathMergeJob("pm", "/in/chain", "/out/pm", 12)
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalState.NumVertices >= 20 {
		t.Fatalf("path merge did not shrink the chain: %d vertices", stats.FinalState.NumVertices)
	}
	// Compare final vertex count against the oracle.
	eng := refVertexCount(t, algorithms.NewPathMergeJob("pm", "", "", 12), g)
	if stats.FinalState.NumVertices != eng {
		t.Fatalf("vertex count %d, reference %d", stats.FinalState.NumVertices, eng)
	}
}

func TestRandomWalkSampleMarksSubset(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.Webmap(200, 5, 9)
	putGraph(t, rt, "/in/g", g)
	job := algorithms.NewRandomWalkSampleJob("rws", "/in/g", "/out/rws", 8, 6)
	if _, err := rt.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	got := readOutputValues(t, rt, "/out/rws")
	marked := 0
	for _, v := range got {
		if v == "true" {
			marked++
		}
	}
	if marked == 0 || marked == len(got) {
		t.Fatalf("sampler marked %d of %d vertices", marked, len(got))
	}
	want := referenceValues(t, algorithms.NewRandomWalkSampleJob("rws", "", "", 8, 6), g)
	compareValues(t, got, want, "random-walk-sample")
}

// TestAutoPlanSwitchesJoinStrategy: under AutoJoin the planner must use
// the full outer join while the computation is dense and switch to the
// left outer join when it sparsifies, without changing results.
func TestAutoPlanSwitchesJoinStrategy(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.BTC(400, 5, 21)
	putGraph(t, rt, "/in/g", g)

	job := algorithms.NewSSSPJob("sssp-auto", "/in/g", "/out/auto", 1)
	job.Join = pregel.AutoJoin
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	plans := map[string]int{}
	for _, ss := range stats.SuperstepStats {
		plans[ss.Plan]++
	}
	if plans["fullouter"] == 0 {
		t.Fatalf("planner never chose FOJ: %v", plans)
	}
	if plans["leftouter"] == 0 {
		t.Fatalf("planner never switched to LOJ: %v", plans)
	}
	if stats.SuperstepStats[0].Plan != "fullouter" {
		t.Fatal("superstep 1 must scan (all vertices live)")
	}
	got := readOutputValues(t, rt, "/out/auto")
	want := referenceValues(t, algorithms.NewSSSPJob("sssp", "", "", 1), g)
	compareValues(t, got, want, "sssp-autoplan")
}

// TestAutoPlanPageRankStaysFOJ: a dense workload should never trigger
// the probe plan.
func TestAutoPlanPageRankStaysFOJ(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.Webmap(150, 5, 8)
	putGraph(t, rt, "/in/g", g)
	job := algorithms.NewPageRankJob("pr-auto", "/in/g", "/out/pr", 4)
	job.Join = pregel.AutoJoin
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range stats.SuperstepStats {
		if ss.Plan != "fullouter" && ss.Superstep < stats.Supersteps {
			t.Fatalf("superstep %d used %s", ss.Superstep, ss.Plan)
		}
	}
	got := readOutputValues(t, rt, "/out/pr")
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", 4), g)
	compareValues(t, got, want, "pagerank-autoplan")
}
