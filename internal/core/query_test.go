package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pregelix/internal/delta"
	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel/algorithms"
)

// TestVidRoutingAgrees pins the three places a vid is routed to one
// hash: the load and superstep connectors (hyracks.HashPartitioner over
// the 8-byte key), mutations (delta.PartitionOf) and queries
// (routeVertex with no split). A difference misroutes reads and writes.
func TestVidRoutingAgrees(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	load := hyracks.HashPartitioner(0)
	f := tuple.NewFrame()
	for i := 0; i < 1000; i++ {
		vid := rng.Uint64()
		if i < 4 {
			vid = []uint64{0, 1, 1 << 63, ^uint64(0)}[i]
		}
		f.Reset()
		tuple.NewFrameAppender(f).Append(tuple.EncodeUint64(vid))
		for parts := 1; parts <= 17; parts++ {
			want := load(f.Tuple(0), parts)
			if got := delta.PartitionOf(vid, parts); got != want {
				t.Fatalf("vid %d over %d partitions: delta.PartitionOf %d, the connectors %d", vid, parts, got, want)
			}
			if got := routeVertex(vid, parts, nil); got != want {
				t.Fatalf("vid %d over %d partitions: routeVertex %d, the connectors %d", vid, parts, got, want)
			}
		}
	}
}

// fakeQueryIndex is an empty storage.Index that records Drop, for
// exercising the version/retirement state machine without real B-trees.
type fakeQueryIndex struct{ dropped atomic.Bool }

func (f *fakeQueryIndex) Search(key []byte) ([]byte, error) { return nil, storage.ErrNotFound }
func (f *fakeQueryIndex) Insert(key, value []byte) error    { return nil }
func (f *fakeQueryIndex) Delete(key []byte) error           { return nil }
func (f *fakeQueryIndex) ScanFrom(start []byte) (storage.IndexCursor, error) {
	return emptyQueryCursor{}, nil
}
func (f *fakeQueryIndex) Close() error { return nil }
func (f *fakeQueryIndex) Drop() error  { f.dropped.Store(true); return nil }

type emptyQueryCursor struct{}

func (emptyQueryCursor) Next() ([]byte, []byte, bool)     { return nil, nil, false }
func (emptyQueryCursor) NextView() ([]byte, []byte, bool) { return nil, nil, false }
func (emptyQueryCursor) Update([]byte) bool               { return false }
func (emptyQueryCursor) Err() error                       { return nil }
func (emptyQueryCursor) Close()                           {}

// TestQueryStoreVersionDrain drives the sealed → retired → destroyed
// state machine directly: sealing a successor retires the old version
// for new readers, but destruction (index Drop + scratch cleanup) waits
// until the old version's last in-flight reader releases.
func TestQueryStoreVersionDrain(t *testing.T) {
	s := newQueryStore()
	idx1 := &fakeQueryIndex{}
	var cleaned1, cleaned2 atomic.Bool
	s.seal(&retainedResult{
		version: "job@j1", numParts: 1,
		parts:   map[int]storage.Index{0: idx1},
		cleanup: func() { cleaned1.Store(true) },
	})

	if !s.Retained("job@j1") {
		t.Fatal("sealed version not retained")
	}
	if res, err := s.Point("job@j1", []uint64{7}); err != nil || len(res) != 1 || res[0].Found {
		t.Fatalf("point on empty index: %v %+v", err, res)
	}
	if _, err := s.Point("job@j2", []uint64{7}); !errors.Is(err, ErrNoResult) {
		t.Fatalf("point on unsealed version: %v", err)
	}
	if kh, err := s.KHop("job@j1", 7, 3); err != nil || kh.Found {
		t.Fatalf("k-hop from missing source: %v %+v", err, kh)
	}

	// A reader in flight when the successor seals.
	r1, err := s.acquire("job@j1")
	if err != nil {
		t.Fatal(err)
	}
	idx2 := &fakeQueryIndex{}
	s.seal(&retainedResult{
		version: "job@j2", numParts: 1,
		parts:   map[int]storage.Index{0: idx2},
		cleanup: func() { cleaned2.Store(true) },
	})

	if s.Retained("job@j1") || !s.Retained("job@j2") {
		t.Fatal("supersession did not switch the retained version")
	}
	if _, err := s.acquire("job@j1"); !errors.Is(err, ErrNoResult) {
		t.Fatalf("retired version accepted a new reader: %v", err)
	}
	if idx1.dropped.Load() || cleaned1.Load() {
		t.Fatal("retired version destroyed while a reader was in flight")
	}
	// The in-flight reader still evaluates against the retired version.
	if res, err := r1.point([]uint64{7}); err != nil || res[0].Found {
		t.Fatalf("in-flight reader on retired version: %v", err)
	}
	r1.release()
	if !idx1.dropped.Load() || !cleaned1.Load() {
		t.Fatal("last reader's release did not destroy the retired version")
	}

	s.closeAll()
	if !idx2.dropped.Load() || !cleaned2.Load() {
		t.Fatal("closeAll did not destroy the current version")
	}
	if _, err := s.Point("job@j2", []uint64{7}); !errors.Is(err, ErrNoResult) {
		t.Fatalf("closed store still serving: %v", err)
	}
}

// expectTopK computes the reference top-k from a dumped vid→value map:
// numeric score descending, ties by ascending vid.
func expectTopK(t *testing.T, dumped map[uint64]string, k int) []TopKEntry {
	t.Helper()
	var all []TopKEntry
	for vid, vs := range dumped {
		score, err := strconv.ParseFloat(vs, 64)
		if err != nil {
			t.Fatalf("non-numeric dump value %q", vs)
		}
		all = append(all, TopKEntry{Vid: vid, Value: vs, Score: score})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Vid < all[j].Vid
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func checkTopK(t *testing.T, got, want []TopKEntry, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: top-k has %d entries, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Vid != want[i].Vid || got[i].Value != want[i].Value {
			t.Fatalf("%s: top-k[%d] = %d/%q, want %d/%q",
				label, i, got[i].Vid, got[i].Value, want[i].Vid, want[i].Value)
		}
	}
}

// bfsLayers computes the reference k-hop expansion over the generated
// graph's adjacency: layer i holds the vertices first reached in i+1
// hops (dangling edge destinations included but not expanded).
func bfsLayers(g *graphgen.Graph, source uint64, hops int) [][]uint64 {
	visited := map[uint64]bool{source: true}
	frontier := []uint64{source}
	layers := [][]uint64{}
	for h := 0; h < hops; h++ {
		var layer []uint64
		for _, v := range frontier {
			for _, d := range g.Adj[v] {
				if !visited[d] {
					visited[d] = true
					layer = append(layer, d)
				}
			}
		}
		if len(layer) == 0 {
			break
		}
		sort.Slice(layer, func(i, j int) bool { return layer[i] < layer[j] })
		layers = append(layers, layer)
		frontier = frontier[:0]
		for _, d := range layer {
			if _, ok := g.Adj[d]; ok {
				frontier = append(frontier, d)
			}
		}
	}
	return layers
}

func checkKHop(t *testing.T, got *KHopResult, wantLayers [][]uint64, label string) {
	t.Helper()
	if !got.Found {
		t.Fatalf("%s: source not found", label)
	}
	if len(got.Layers) != len(wantLayers) {
		t.Fatalf("%s: %d layers, want %d", label, len(got.Layers), len(wantLayers))
	}
	total := 0
	for i := range wantLayers {
		total += len(wantLayers[i])
		if len(got.Layers[i]) != len(wantLayers[i]) {
			t.Fatalf("%s: layer %d has %d vertices, want %d",
				label, i, len(got.Layers[i]), len(wantLayers[i]))
		}
		for j := range wantLayers[i] {
			if got.Layers[i][j] != wantLayers[i][j] {
				t.Fatalf("%s: layer %d[%d] = %d, want %d",
					label, i, j, got.Layers[i][j], wantLayers[i][j])
			}
		}
	}
	if got.Total != total {
		t.Fatalf("%s: total %d, want %d", label, got.Total, total)
	}
}

// TestJobManagerQueryParity runs a managed single-process PageRank and
// requires every query answer — point, top-k, k-hop — to match the
// dumped output byte-for-byte, served from the retained partition
// B-trees without reading the dump.
func TestJobManagerQueryParity(t *testing.T) {
	g := graphgen.Webmap(200, 4, 7)
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 1})
	defer m.Close()

	h, err := m.Submit(context.Background(), algorithms.NewPageRankJob("pr", "/in/g", "/out/pr", 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	dumped := readOutputValues(t, rt, "/out/pr")
	q := rt.Queries()
	version := h.Name()

	vids := g.VertexIDs()
	res, err := q.Point(version, vids)
	if err != nil {
		t.Fatal(err)
	}
	for i, vid := range vids {
		if !res[i].Found {
			t.Fatalf("vertex %d not found", vid)
		}
		if res[i].Value != dumped[vid] {
			t.Fatalf("vertex %d query value %q, dump value %q", vid, res[i].Value, dumped[vid])
		}
		wantPrefix := fmt.Sprintf("%d\t%s", vid, dumped[vid])
		if len(res[i].Line) < len(wantPrefix) || res[i].Line[:len(wantPrefix)] != wantPrefix {
			t.Fatalf("vertex %d line %q does not start with dump row %q", vid, res[i].Line, wantPrefix)
		}
	}

	if r, err := q.Point(version, []uint64{1 << 40}); err != nil || r[0].Found {
		t.Fatalf("missing vertex: %v %+v", err, r)
	}
	if _, err := q.Point("pr@j999", vids[:1]); !errors.Is(err, ErrNoResult) {
		t.Fatalf("unknown version: %v", err)
	}

	entries, err := q.TopK(version, 10)
	if err != nil {
		t.Fatal(err)
	}
	checkTopK(t, entries, expectTopK(t, dumped, 10), "single-process")

	source := vids[0]
	kh, err := q.KHop(version, source, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkKHop(t, kh, bfsLayers(g, source, 2), "single-process")
}

// TestJobManagerQueryVersionIsolation re-submits a job under the same
// name and requires: a reader that started against the old version
// finishes against it (old values), new queries see only the new
// version, and the old version is destroyed only after that reader
// releases.
func TestJobManagerQueryVersionIsolation(t *testing.T) {
	g := graphgen.Webmap(150, 3, 9)
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 1})
	defer m.Close()

	h1, err := m.Submit(context.Background(), algorithms.NewPageRankJob("pr", "/in/g", "/out/pr1", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	v1 := h1.Name()
	dumped1 := readOutputValues(t, rt, "/out/pr1")

	// A reader in flight across the re-submission.
	r1, err := rt.Queries().acquire(v1)
	if err != nil {
		t.Fatal(err)
	}

	h2, err := m.Submit(context.Background(), algorithms.NewPageRankJob("pr", "/in/g", "/out/pr2", 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	v2 := h2.Name()
	dumped2 := readOutputValues(t, rt, "/out/pr2")

	// The base name now resolves to the new version only.
	if _, err := rt.Queries().Point(v1, []uint64{1}); !errors.Is(err, ErrNoResult) {
		t.Fatalf("superseded version still acquirable: %v", err)
	}
	// The in-flight reader still answers with the OLD run's values.
	probe := g.VertexIDs()[0]
	old, err := r1.point([]uint64{probe})
	if err != nil || !old[0].Found {
		t.Fatalf("in-flight reader after supersession: %v", err)
	}
	if old[0].Value != dumped1[probe] {
		t.Fatalf("in-flight reader saw %q, old dump has %q", old[0].Value, dumped1[probe])
	}
	r1.release()

	// The new version serves the new values (2 vs 5 iterations differ).
	cur, err := rt.Queries().Point(v2, []uint64{probe})
	if err != nil || !cur[0].Found {
		t.Fatal(err)
	}
	if cur[0].Value != dumped2[probe] {
		t.Fatalf("new version served %q, new dump has %q", cur[0].Value, dumped2[probe])
	}
	if cur[0].Value == dumped1[probe] {
		t.Fatal("2- and 5-iteration runs produced identical values; isolation not exercised")
	}
}

// TestDistributedQueryParity is the tentpole acceptance test: queries
// against a completed cluster job — fanned out to the workers that
// sealed its partitions — return values identical to the dumped output
// without reading the dump, for every vertex; top-k and k-hop match the
// reference; repeated point reads hit the coordinator's hot-vertex
// cache.
func TestDistributedQueryParity(t *testing.T) {
	g := graphgen.Webmap(240, 4, 13)
	coord := startDistCluster(t, 2, 2)
	_, output, err := runDistJob(t, coord, "pr@j1", "pagerank", g, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	dumped := parseOutput(t, output)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	vids := g.VertexIDs()
	res, err := coord.QueryVertices(ctx, "pr@j1", vids)
	if err != nil {
		t.Fatal(err)
	}
	for i, vid := range vids {
		if !res[i].Found || res[i].Value != dumped[vid] {
			t.Fatalf("vertex %d query %+v, dump value %q", vid, res[i], dumped[vid])
		}
	}

	// The batch warmed the cache: a repeated single read must hit it.
	hits0, _ := coord.QueryCacheStats()
	if r, err := coord.QueryVertex(ctx, "pr@j1", vids[0]); err != nil || r.Value != dumped[vids[0]] {
		t.Fatalf("repeat read: %v %+v", err, r)
	}
	if hits1, _ := coord.QueryCacheStats(); hits1 <= hits0 {
		t.Fatalf("repeat read missed the hot-vertex cache (hits %d → %d)", hits0, hits1)
	}

	entries, err := coord.QueryTopK(ctx, "pr@j1", 7)
	if err != nil {
		t.Fatal(err)
	}
	checkTopK(t, entries, expectTopK(t, dumped, 7), "distributed")

	source := vids[len(vids)/2]
	kh, err := coord.QueryKHop(ctx, "pr@j1", source, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkKHop(t, kh, bfsLayers(g, source, 3), "distributed")

	if r, err := coord.QueryVertex(ctx, "pr@j1", 1<<40); err != nil || r.Found {
		t.Fatalf("missing vertex: %v %+v", err, r)
	}
	if _, err := coord.QueryVertex(ctx, "pr@j9", vids[0]); !errors.Is(err, ErrNoResult) {
		t.Fatalf("unknown version: %v", err)
	}
}

// TestDistributedQueryVersionIsolation re-submits a job under the same
// base name on a live cluster and requires: mid-run queries against the
// previous version keep serving the previous values, completion swaps
// the served version atomically, and a FAILED re-submission leaves the
// last good version untouched.
func TestDistributedQueryVersionIsolation(t *testing.T) {
	g := graphgen.Webmap(160, 3, 21)
	coord := startDistCluster(t, 2, 2)
	_, out1, err := runDistJob(t, coord, "pr@j1", "pagerank", g, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	dumped1 := parseOutput(t, out1)
	probe := g.VertexIDs()[0]
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// While pr@j2 runs, queries against pr@j1 must still serve the old
	// values (the swap happens only at successful completion).
	var midErr error
	var midOnce atomic.Bool
	var midMu sync.Mutex
	progress := func(ss int64) {
		if ss < 2 || !midOnce.CompareAndSwap(false, true) {
			return
		}
		r, err := coord.QueryVertex(ctx, "pr@j1", probe)
		midMu.Lock()
		defer midMu.Unlock()
		switch {
		case err != nil:
			midErr = fmt.Errorf("mid-run query: %w", err)
		case !r.Found || r.Value != dumped1[probe]:
			midErr = fmt.Errorf("mid-run query saw %+v, want value %q", r, dumped1[probe])
		}
	}
	spec, _ := json.Marshal(distTestSpec{Algorithm: "pagerank", Input: "/in/g", Iterations: 5})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, out2, err := coord.RunJob(ctx, DistSubmission{
		Name:       "pr@j2",
		Spec:       spec,
		Job:        job,
		InputPath:  "/in/g",
		InputData:  graphText(t, g),
		WantOutput: true,
		Progress:   progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	midMu.Lock()
	err = midErr
	midMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !midOnce.Load() {
		t.Fatal("mid-run query never fired")
	}
	dumped2 := parseOutput(t, out2)

	// The old version is gone; the new one serves the new values.
	if _, err := coord.QueryVertex(ctx, "pr@j1", probe); !errors.Is(err, ErrNoResult) {
		t.Fatalf("superseded version still served: %v", err)
	}
	r, err := coord.QueryVertex(ctx, "pr@j2", probe)
	if err != nil || !r.Found || r.Value != dumped2[probe] {
		t.Fatalf("new version: %v %+v, want %q", err, r, dumped2[probe])
	}
	if dumped1[probe] == dumped2[probe] {
		t.Fatal("2- and 5-iteration runs produced identical values; isolation not exercised")
	}

	// A failed re-submission must NOT invalidate the last good version.
	badSpec, _ := json.Marshal(distTestSpec{Algorithm: "pagerank", Input: "/in/missing", Iterations: 2})
	badJob, err := distTestBuilder(badSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.RunJob(ctx, DistSubmission{
		Name: "pr@j3", Spec: badSpec, Job: badJob,
	}); err == nil {
		t.Fatal("job with missing input succeeded")
	}
	r, err = coord.QueryVertex(ctx, "pr@j2", probe)
	if err != nil || r.Value != dumped2[probe] {
		t.Fatalf("failed re-submission broke the serving version: %v %+v", err, r)
	}
}

// TestQueriesDuringElasticRebalance hammers a sealed result with
// concurrent point and top-k reads while a later job scales out to an
// elastic worker mid-run. Sealed partitions never migrate, so every
// query must keep succeeding with unchanged values across the
// rebalance.
func TestQueriesDuringElasticRebalance(t *testing.T) {
	g := graphgen.Webmap(200, 4, 17)
	coord := startDistCluster(t, 2, 2)
	_, out1, err := runDistJob(t, coord, "pr@j1", "pagerank", g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	dumped := parseOutput(t, out1)
	top3 := expectTopK(t, dumped, 3)
	vids := g.VertexIDs()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries int64
	errs := make(chan error, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := w
			for {
				select {
				case <-stop:
					return
				default:
				}
				vid := vids[i%len(vids)]
				i += 7
				r, err := coord.QueryVertex(ctx, "pr@j1", vid)
				if err != nil || !r.Found || r.Value != dumped[vid] {
					errs <- fmt.Errorf("point %d during rebalance: %v %+v", vid, err, r)
					return
				}
				// Top-k is never cached: it re-reads the workers' sealed
				// B-trees on every call, racing the live migration.
				entries, err := coord.QueryTopK(ctx, "pr@j1", 3)
				if err != nil || len(entries) != 3 || entries[0].Vid != top3[0].Vid {
					errs <- fmt.Errorf("top-k during rebalance: %v %+v", err, entries)
					return
				}
				atomic.AddInt64(&queries, 1)
			}
		}(w)
	}

	// A second job (different base name — pr@j1 must stay current)
	// scales out to an elastic worker at superstep ≥ 2.
	progress, joined := joinAtSuperstep(t, coord, 2, 1, 2)
	spec, _ := json.Marshal(distTestSpec{Algorithm: "pagerank", Input: "/in/g", Iterations: 8})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = coord.RunJob(ctx, DistSubmission{
		Name:       "pr2@j2",
		Spec:       spec,
		Job:        job,
		InputPath:  "/in/g",
		InputData:  graphText(t, g),
		WantOutput: true,
		Progress:   progress,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if !joined.Load() {
		t.Fatal("elastic worker never joined")
	}
	if n, _ := countRebalance(coord, "scale-out"); n == 0 {
		t.Fatal("no scale-out rebalance happened during the query storm")
	}
	if atomic.LoadInt64(&queries) == 0 {
		t.Fatal("query storm never completed a round")
	}

	// Full post-rebalance parity scan: the sealed version still serves
	// every vertex with the original values.
	res, err := coord.QueryVertices(ctx, "pr@j1", vids)
	if err != nil {
		t.Fatal(err)
	}
	for i, vid := range vids {
		if !res[i].Found || res[i].Value != dumped[vid] {
			t.Fatalf("post-rebalance vertex %d: %+v, want %q", vid, res[i], dumped[vid])
		}
	}
}
