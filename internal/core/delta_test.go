package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pregelix/internal/delta"
	"pregelix/internal/graphgen"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// unweighted returns a BTC graph with the weights stripped: the
// delta-PageRank codec owns the edge value slot (cumulative pushed
// mass), so its input must not carry weights.
func unweighted(n int, deg float64, seed int64) *graphgen.Graph {
	g := graphgen.BTC(n, deg, seed)
	g.Weights = nil
	return g
}

// addEdgeChurn picks frac*|E|/2 random absent vertex pairs, adds both
// directions to a clone of g, and returns the clone plus the matching
// mutation stream.
func addEdgeChurn(g *graphgen.Graph, frac float64, seed int64) (*graphgen.Graph, []delta.Mutation) {
	rng := rand.New(rand.NewSource(seed))
	ids := g.VertexIDs()
	adj := make(map[uint64]map[uint64]bool, len(ids))
	for id, edges := range g.Adj {
		set := make(map[uint64]bool, len(edges))
		for _, d := range edges {
			set[d] = true
		}
		adj[id] = set
	}
	pairs := int(frac * float64(g.NumEdges()) / 2)
	if pairs < 1 {
		pairs = 1
	}
	var muts []delta.Mutation
	for n := 0; n < pairs; {
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		if a == b || adj[a][b] {
			continue
		}
		adj[a][b], adj[b][a] = true, true
		muts = append(muts,
			delta.Mutation{Op: delta.OpAddEdge, ID: a, Dst: b},
			delta.Mutation{Op: delta.OpAddEdge, ID: b, Dst: a})
		n++
	}
	return rebuildGraph(adj), muts
}

// removeEdgeChurn deletes frac*|E|/2 random undirected edges from a
// clone of g and returns the clone plus the matching mutation stream.
func removeEdgeChurn(g *graphgen.Graph, frac float64, seed int64) (*graphgen.Graph, []delta.Mutation) {
	rng := rand.New(rand.NewSource(seed))
	ids := g.VertexIDs()
	adj := make(map[uint64]map[uint64]bool, len(ids))
	for id, edges := range g.Adj {
		set := make(map[uint64]bool, len(edges))
		for _, d := range edges {
			set[d] = true
		}
		adj[id] = set
	}
	pairs := int(frac * float64(g.NumEdges()) / 2)
	if pairs < 1 {
		pairs = 1
	}
	var muts []delta.Mutation
	for n := 0; n < pairs; {
		a := ids[rng.Intn(len(ids))]
		if len(adj[a]) == 0 {
			continue
		}
		var b uint64
		k := rng.Intn(len(adj[a]))
		for d := range adj[a] {
			if k == 0 {
				b = d
				break
			}
			k--
		}
		delete(adj[a], b)
		delete(adj[b], a)
		muts = append(muts,
			delta.Mutation{Op: delta.OpRemoveEdge, ID: a, Dst: b},
			delta.Mutation{Op: delta.OpRemoveEdge, ID: b, Dst: a})
		n++
	}
	return rebuildGraph(adj), muts
}

func rebuildGraph(adj map[uint64]map[uint64]bool) *graphgen.Graph {
	out := &graphgen.Graph{Adj: make(map[uint64][]uint64, len(adj))}
	for id, set := range adj {
		edges := make([]uint64, 0, len(set))
		for d := range set {
			edges = append(edges, d)
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		out.Adj[id] = edges
	}
	return out
}

// compareConverged checks two epsilon-converged PageRank fixed points
// for equality within the convergence tolerance (each run stops pushing
// residuals below epsilon, so the runs may legitimately differ by a
// small multiple of it).
func compareConverged(t *testing.T, got, want map[uint64]string, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vertices, want %d", label, len(got), len(want))
	}
	for id, ws := range want {
		gs, ok := got[id]
		if !ok {
			t.Fatalf("%s: vertex %d missing", label, id)
		}
		gv, err1 := strconv.ParseFloat(gs, 64)
		wv, err2 := strconv.ParseFloat(ws, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: non-numeric values %q %q", label, gs, ws)
		}
		if math.Abs(gv-wv) > tol+1e-4*math.Abs(wv) {
			t.Fatalf("%s: vertex %d: got %v want %v", label, id, gv, wv)
		}
	}
}

// pointValues reads every vertex of the sealed version into
// vid → value-string, the query-tier analog of readOutputValues.
func pointValues(t *testing.T, rt *Runtime, version string, ids []uint64) map[uint64]string {
	t.Helper()
	res, err := rt.Queries().Point(version, ids)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]string, len(ids))
	for i, id := range ids {
		if !res[i].Found {
			t.Fatalf("vertex %d not found in %s", id, version)
		}
		out[id] = res[i].Value
	}
	return out
}

// inKCore reports k-core membership from a dumped/queried kcore value
// string: the vertex is OUT when its own id appears in its removed-list.
func inKCore(vid uint64, value string) bool {
	if value == "" {
		return true
	}
	me := strconv.FormatUint(vid, 10)
	for _, f := range strings.Split(value, ",") {
		if f == me {
			return false
		}
	}
	return true
}

// TestRuntimeDeltaRefreshPageRankAdditions seals a residual-PageRank
// fixed point, streams 2% edge additions through SubmitDelta, and
// requires the refreshed version to match a from-scratch run on the
// mutated graph — value-identical within the convergence tolerance —
// while touching far fewer vertex computations.
func TestRuntimeDeltaRefreshPageRankAdditions(t *testing.T) {
	g := unweighted(240, 4, 5)
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 1})
	defer m.Close()
	ctx := context.Background()
	const eps = 1e-10

	h, err := m.Submit(ctx, algorithms.NewDeltaPageRankJob("dpr", "/in/g", "/out/base", eps))
	if err != nil {
		t.Fatal(err)
	}
	baseStats, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v1 := h.Name()

	mg, muts := addEdgeChurn(g, 0.02, 23)
	hd, err := m.SubmitDelta(ctx, algorithms.NewDeltaPageRankJob("dpr", "/in/g", "", eps), v1, 1, muts)
	if err != nil {
		t.Fatal(err)
	}
	deltaStats, err := hd.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v2 := hd.Name()
	if v2 != v1+"@d1" {
		t.Fatalf("delta version %q, want %q", v2, v1+"@d1")
	}
	if left := rt.DFS.List("/pregelix/"); len(left) != 0 {
		t.Fatalf("finished job and refresh left DFS state behind: %v", left)
	}

	// From-scratch on the mutated graph, same program.
	putGraph(t, rt, "/in/g2", mg)
	h2, err := m.Submit(ctx, algorithms.NewDeltaPageRankJob("dprfull", "/in/g2", "/out/full", eps))
	if err != nil {
		t.Fatal(err)
	}
	fullStats, err := h2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	want := readOutputValues(t, rt, "/out/full")
	got := pointValues(t, rt, v2, mg.VertexIDs())
	compareConverged(t, got, want, 1e-6, "delta-vs-scratch")

	// The refresh re-activated only the churn frontier: the residual
	// cascade must move a fraction of the from-scratch run's messages
	// (every vertex votes to halt each round, so messages ARE the work).
	if deltaStats.TotalMessages*2 >= fullStats.TotalMessages {
		t.Fatalf("delta refresh moved %d messages vs %d from scratch — not incremental",
			deltaStats.TotalMessages, fullStats.TotalMessages)
	}
	t.Logf("base %d ss (%d msgs), delta %d ss (%d msgs), full %d ss (%d msgs)",
		baseStats.Supersteps, baseStats.TotalMessages,
		deltaStats.Supersteps, deltaStats.TotalMessages,
		fullStats.Supersteps, fullStats.TotalMessages)
}

// TestRuntimeDeltaRefreshKCoreRemovals seals a 3-core peeling fixed
// point, streams 5% edge removals, and requires the refreshed
// membership to be identical to a from-scratch peel of the mutated
// graph (k-core is exact under removals).
func TestRuntimeDeltaRefreshKCoreRemovals(t *testing.T) {
	g := graphgen.BTC(260, 5, 9)
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 1})
	defer m.Close()
	ctx := context.Background()
	const k = 3

	h, err := m.Submit(ctx, algorithms.NewKCoreJob("kcore", "/in/g", "/out/base", k))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	v1 := h.Name()

	mg, muts := removeEdgeChurn(g, 0.05, 31)
	hd, err := m.SubmitDelta(ctx, algorithms.NewKCoreJob("kcore", "/in/g", "", k), v1, 1, muts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hd.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	putGraph(t, rt, "/in/g2", mg)
	h2, err := m.Submit(ctx, algorithms.NewKCoreJob("kcorefull", "/in/g2", "/out/full", k))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	want := readOutputValues(t, rt, "/out/full")
	got := pointValues(t, rt, hd.Name(), mg.VertexIDs())
	in := 0
	for id, val := range got {
		if inKCore(id, val) != inKCore(id, want[id]) {
			t.Fatalf("vertex %d: delta in-core=%v, from-scratch %v", id, inKCore(id, val), inKCore(id, want[id]))
		}
		if inKCore(id, val) {
			in++
		}
	}
	if in == 0 || in == len(got) {
		t.Fatalf("degenerate core (%d of %d in-core); churn did not exercise peeling", in, len(got))
	}
}

// TestRuntimeDeltaVertexChurn exercises the vertex add/remove path:
// removing a vertex (and its incident edges, so no dangling message
// resurrects it) makes point reads miss it; an added vertex with an
// initializer and edges becomes queryable; total counts stay balanced.
func TestRuntimeDeltaVertexChurn(t *testing.T) {
	g := unweighted(150, 4, 13)
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 1})
	defer m.Close()
	ctx := context.Background()

	h, err := m.Submit(ctx, algorithms.NewDeltaPageRankJob("dpr", "/in/g", "", 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	v1 := h.Name()

	// Remove vertex 10 and every incident edge (both directions — BTC is
	// undirected), then add a fresh vertex wired to vertex 1.
	gone := uint64(10)
	newID := uint64(100000)
	val := 0.001
	var muts []delta.Mutation
	for _, n := range g.Adj[gone] {
		muts = append(muts,
			delta.Mutation{Op: delta.OpRemoveEdge, ID: n, Dst: gone},
			delta.Mutation{Op: delta.OpRemoveEdge, ID: gone, Dst: n})
	}
	muts = append(muts,
		delta.Mutation{Op: delta.OpRemoveVertex, ID: gone},
		delta.Mutation{Op: delta.OpAddVertex, ID: newID, Value: &val},
		delta.Mutation{Op: delta.OpAddEdge, ID: newID, Dst: 1},
		delta.Mutation{Op: delta.OpAddEdge, ID: 1, Dst: newID})

	hd, err := m.SubmitDelta(ctx, algorithms.NewDeltaPageRankJob("dpr", "/in/g", "", 1e-8), v1, 1, muts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := hd.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	res, err := rt.Queries().Point(hd.Name(), []uint64{gone, newID, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Found {
		t.Fatalf("removed vertex %d still queryable: %+v", gone, res[0])
	}
	if !res[1].Found {
		t.Fatalf("added vertex %d not queryable", newID)
	}
	if !res[2].Found {
		t.Fatal("untouched vertex 1 lost")
	}
	if nv := stats.FinalState.NumVertices; nv != int64(len(g.Adj)) {
		t.Fatalf("final vertex count %d, want %d (one removed, one added)", nv, len(g.Adj))
	}
}

// TestRuntimeDeltaQueryVersionSwap pins the satellite query-tier
// contract: a reader that acquired the pre-delta version keeps reading
// the OLD values for as long as it lives, the refresh's seal atomically
// swaps the served version, and the old version name stops resolving.
func TestRuntimeDeltaQueryVersionSwap(t *testing.T) {
	g := unweighted(150, 4, 17)
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 1})
	defer m.Close()
	ctx := context.Background()

	h, err := m.Submit(ctx, algorithms.NewDeltaPageRankJob("dpr", "/in/g", "", 1e-10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	v1 := h.Name()

	// Funnel new edges into one target so its rank visibly rises.
	target := g.VertexIDs()[len(g.Adj)-1]
	var muts []delta.Mutation
	for _, src := range g.VertexIDs()[:10] {
		muts = append(muts, delta.Mutation{Op: delta.OpAddEdge, ID: src, Dst: target})
	}

	oldVals := pointValues(t, rt, v1, []uint64{target})
	r1, err := rt.Queries().acquire(v1)
	if err != nil {
		t.Fatal(err)
	}

	hd, err := m.SubmitDelta(ctx, algorithms.NewDeltaPageRankJob("dpr", "/in/g", "", 1e-10), v1, 1, muts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hd.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	v2 := hd.Name()

	// The old version name no longer resolves for new readers...
	if _, err := rt.Queries().Point(v1, []uint64{target}); !errors.Is(err, ErrNoResult) {
		t.Fatalf("pre-delta version still acquirable: %v", err)
	}
	// ...but the in-flight reader still sees the pre-delta values.
	old, err := r1.point([]uint64{target})
	if err != nil || !old[0].Found {
		t.Fatalf("in-flight reader after refresh: %v %+v", err, old)
	}
	if old[0].Value != oldVals[target] {
		t.Fatalf("in-flight reader saw %q, pre-delta value was %q", old[0].Value, oldVals[target])
	}
	r1.release()

	// The refreshed version serves a visibly different rank.
	cur := pointValues(t, rt, v2, []uint64{target})
	ov, _ := strconv.ParseFloat(oldVals[target], 64)
	nv, _ := strconv.ParseFloat(cur[target], 64)
	if nv <= ov {
		t.Fatalf("10 new in-edges did not raise vertex %d's rank (%v -> %v)", target, ov, nv)
	}
}

// runDistDelta runs a deltapagerank base job on the cluster, returning
// the spec both later phases reuse.
func runDistDelta(t *testing.T, coord *Coordinator, name string, g *graphgen.Graph, eps float64) json.RawMessage {
	t.Helper()
	spec, _ := json.Marshal(distTestSpec{Algorithm: "deltapagerank", Input: "/in/g", Epsilon: eps})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, _, err := coord.RunJob(ctx, DistSubmission{
		Name: name, Spec: spec, Job: job,
		InputPath: "/in/g", InputData: graphText(t, g),
	}); err != nil {
		t.Fatal(err)
	}
	return spec
}

// distScratchValues runs a from-scratch deltapagerank on the mutated
// graph under a throwaway base name and returns its dumped values.
func distScratchValues(t *testing.T, coord *Coordinator, name string, mg *graphgen.Graph, eps float64) map[uint64]string {
	t.Helper()
	spec, _ := json.Marshal(distTestSpec{Algorithm: "deltapagerank", Input: "/in/g2", Epsilon: eps})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	_, out, err := coord.RunJob(ctx, DistSubmission{
		Name: name, Spec: spec, Job: job,
		InputPath: "/in/g2", InputData: graphText(t, mg), WantOutput: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return parseOutput(t, out)
}

func distPointValues(t *testing.T, coord *Coordinator, version string, ids []uint64) map[uint64]string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := coord.QueryVertices(ctx, version, ids)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]string, len(ids))
	for i, id := range ids {
		if !res[i].Found {
			t.Fatalf("vertex %d not found in %s", id, version)
		}
		out[id] = res[i].Value
	}
	return out
}

// TestDistributedDeltaRefresh is the tentpole acceptance test: a sealed
// 2-process residual-PageRank absorbs an edge-addition batch through
// delta.ingest/delta.run supersteps (real TCP shuffle) and converges to
// values identical to a from-scratch recompute of the mutated graph,
// with the refreshed clone replacing the old version for queries.
func TestDistributedDeltaRefresh(t *testing.T) {
	g := unweighted(240, 4, 19)
	coord := startDistCluster(t, 2, 2)
	const eps = 1e-10
	spec := runDistDelta(t, coord, "dpr@j1", g, eps)

	mg, muts := addEdgeChurn(g, 0.02, 41)
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
	if stats.Supersteps < 2 {
		t.Fatalf("delta refresh ran %d supersteps; expected a cascade", stats.Supersteps)
	}

	want := distScratchValues(t, coord, "dprfull@j1", mg, eps)
	got := distPointValues(t, coord, "dpr@j1@d1", mg.VertexIDs())
	compareConverged(t, got, want, 1e-6, "distributed-delta")

	// The old version retired at the seal.
	if _, err := coord.QueryVertex(ctx, "dpr@j1", mg.VertexIDs()[0]); !errors.Is(err, ErrNoResult) {
		t.Fatalf("pre-delta version still served: %v", err)
	}
}

// TestDeltaRefreshAfterElasticScaleOut seals a result on 2 workers,
// scales the cluster out, and refreshes: the idle rebalance moves a
// node onto the new worker while the sealed partitions stay where
// job.end left them, so the coordinator must ship sealed images across
// workers to seed the delta session (the rpcPartSend FromVersion path).
// Values must still match a from-scratch recompute.
func TestDeltaRefreshAfterElasticScaleOut(t *testing.T) {
	g := unweighted(200, 4, 29)
	coord := startDistCluster(t, 2, 2)
	const eps = 1e-10
	spec := runDistDelta(t, coord, "dpr@j1", g, eps)

	// Join an elastic worker (1 node of 4) and wait for the idle
	// rebalance to migrate a partition onto it.
	addElasticWorker(t, coord, 1, true)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if n, _ := countRebalance(coord, "scale-out"); n > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	mg, muts := addEdgeChurn(g, 0.02, 43)
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := coord.DeltaRefresh(ctx, DeltaSubmission{
		Version: "dpr@j1", Name: "dpr@j1@d1", Spec: spec, Job: job, Muts: muts,
	}); err != nil {
		t.Fatal(err)
	}
	if n, _ := countRebalance(coord, "scale-out"); n == 0 {
		t.Fatal("refresh did not apply the pending scale-out rebalance")
	}

	want := distScratchValues(t, coord, "dprfull@j1", mg, eps)
	got := distPointValues(t, coord, "dpr@j1@d1", mg.VertexIDs())
	compareConverged(t, got, want, 1e-6, "post-scale-out-delta")
}

// deltaKillerBuilder is killerBuilder with a >= trigger: a delta run's
// sparse frontier may skip the victim worker at the exact superstep, so
// the first compute call at-or-after the threshold pulls the plug.
func deltaKillerBuilder(kill func(), atStep int64, triggered *atomic.Bool) func(json.RawMessage) (*pregel.Job, error) {
	return func(raw json.RawMessage) (*pregel.Job, error) {
		job, err := distTestBuilder(raw)
		if err != nil {
			return nil, err
		}
		inner := job.Program
		job.Program = pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			if ctx.Superstep() >= atStep && triggered.CompareAndSwap(false, true) {
				kill()
				time.Sleep(100 * time.Millisecond)
			}
			return inner.Compute(ctx, v, msgs)
		})
		return job, nil
	}
}

// TestDeltaRefreshKillRecovery kills a worker mid-delta-superstep with
// CheckpointEvery=2: the refresh must recover from the delta run's own
// checkpoint (restoring onto the survivor), finish, and still match the
// from-scratch recompute.
func TestDeltaRefreshKillRecovery(t *testing.T) {
	g := unweighted(200, 4, 37)
	var triggered atomic.Bool
	var kc *killableCluster
	builders := map[int]func(json.RawMessage) (*pregel.Job, error){
		1: deltaKillerBuilder(func() { kc.kill(1) }, 4, &triggered),
	}
	kc = startKillableCluster(t, CoordinatorConfig{}, 2, 2, builders)
	coord := kc.coord
	const eps = 1e-10

	// The base run shares the killer's builder and would pass the
	// trigger superstep too; hold the fuse blown while it runs and
	// re-arm only for the refresh.
	triggered.Store(true)
	spec := runDistDelta(t, coord, "dpr@j1", g, eps)

	mg, muts := addEdgeChurn(g, 0.03, 47)
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	job.CheckpointEvery = 2
	triggered.Store(false) // arm the killer for the delta run only
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	stats, err := coord.DeltaRefresh(ctx, DeltaSubmission{
		Version: "dpr@j1", Name: "dpr@j1@d1", Spec: spec, Job: job, Muts: muts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !triggered.Load() {
		t.Fatal("the killer never fired; the delta run was too short to test recovery")
	}
	if stats.Recoveries == 0 {
		t.Fatal("worker died mid-refresh but no recovery was recorded")
	}

	want := distScratchValues(t, coord, "dprfull@j1", mg, eps)
	got := distPointValues(t, coord, "dpr@j1@d1", mg.VertexIDs())
	compareConverged(t, got, want, 1e-6, "post-recovery-delta")
}
