package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// fullSortTopK is the rule top-k answered by before it became a bounded
// scan, kept as the reference on finite values: render every vertex, sort
// all the rows with a comparator that parses the values as it compares,
// keep the first k.
func fullSortTopK(vs []*pregel.Vertex, k int) []TopKEntry {
	var all []TopKEntry
	for _, v := range vs {
		text := pregel.ValueString(v.Value)
		score, err := strconv.ParseFloat(text, 64)
		if err != nil {
			score = 0
		}
		all = append(all, TopKEntry{Vid: uint64(v.ID), Value: text, Score: score, Line: pregel.FormatVertexLine(v)})
	}
	numeric := func(e TopKEntry) bool {
		_, err := strconv.ParseFloat(e.Value, 64)
		return err == nil
	}
	sort.Slice(all, func(i, j int) bool {
		ni, nj := numeric(all[i]), numeric(all[j])
		if ni != nj {
			return ni
		}
		if !ni {
			if all[i].Value != all[j].Value {
				return all[i].Value > all[j].Value
			}
			return all[i].Vid < all[j].Vid
		}
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Vid < all[j].Vid
	})
	return all[:min(k, len(all))]
}

// sealedTestResult seals vs into parts B-trees, each vertex in the
// partition a query routes it to.
func sealedTestResult(t *testing.T, codec *pregel.Codec, parts int, vs []*pregel.Vertex) *retainedResult {
	t.Helper()
	bc := storage.NewBufferCache(0, nil)
	r := &retainedResult{version: "topk@j1", partTable: partTable{NumParts: parts}, codec: codec, parts: map[int]storage.Index{}}
	for p := 0; p < parts; p++ {
		bt, err := storage.CreateBTree(bc, filepath.Join(t.TempDir(), fmt.Sprintf("vertex-%d", p)))
		if err != nil {
			t.Fatal(err)
		}
		r.parts[p] = storage.AsIndex(bt)
	}
	for _, v := range vs {
		if err := r.parts[r.routeVid(uint64(v.ID))].Insert(tuple.EncodeUint64(uint64(v.ID)), codec.EncodeVertex(v)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// topKValueKinds draw the vertex values of TestTopKMatchesFullSort: few
// distinct values, so ties cross partitions.
var topKValueKinds = []struct {
	name string
	new  func() pregel.Value
	draw func(rng *rand.Rand) pregel.Value
}{
	{"double", pregel.NewDouble, func(rng *rand.Rand) pregel.Value {
		pool := []float64{0, math.Copysign(0, -1), 0.1, -0.1, 2.5, -2.5, 1e-310, 1e300, -1e300}
		d := pregel.Double(pool[rng.IntN(len(pool))])
		if rng.IntN(3) == 0 {
			d = pregel.Double(rng.NormFloat64() * 1e3)
		}
		return &d
	}},
	{"int64", pregel.NewInt64, func(rng *rand.Rand) pregel.Value {
		pool := []int64{0, -1, 7, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, 1<<53 + 1, 1 << 53}
		n := pregel.Int64(pool[rng.IntN(len(pool))])
		if rng.IntN(3) == 0 {
			n = pregel.Int64(rng.IntN(41) - 20)
		}
		return &n
	}},
	{"float", pregel.NewFloat, func(rng *rand.Rand) pregel.Value {
		f := pregel.Float(float32(rng.IntN(9)-4) / 3)
		return &f
	}},
	{"bool", pregel.NewBool, func(rng *rand.Rand) pregel.Value {
		b := pregel.Bool(rng.IntN(2) == 0)
		return &b
	}},
	{"vidlist", pregel.NewVIDList, func(rng *rand.Rand) pregel.Value {
		l := make(pregel.VIDList, rng.IntN(3)) // "" and "3,1" do not parse, "4" does
		for i := range l {
			l[i] = uint64(rng.IntN(5))
		}
		return &l
	}},
}

func sameTopK(got, want []TopKEntry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Vid != w.Vid || g.Value != w.Value || math.Float64bits(g.Score) != math.Float64bits(w.Score) || g.Line != w.Line {
			return fmt.Errorf("entry %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// TestTopKMatchesFullSort: the bounded scan — on one worker holding every
// partition, through QueryStore.TopK, and as two workers' answers merged —
// returns exactly what rendering, sorting and truncating every vertex
// returns, for every value type, partition count and k.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 2))
	for _, kind := range topKValueKinds {
		codec := &pregel.Codec{NewVertexValue: kind.new, NewEdgeValue: pregel.NewFloat, NewMessage: pregel.NewDouble}
		for parts := 1; parts <= 4; parts++ {
			n := 20 + rng.IntN(60)
			var vs []*pregel.Vertex
			for seen := map[pregel.VertexID]bool{}; len(vs) < n; {
				v := &pregel.Vertex{ID: pregel.VertexID(rng.Uint64() >> rng.UintN(60)), Value: kind.draw(rng)}
				if seen[v.ID] {
					continue
				}
				seen[v.ID] = true
				for e := rng.IntN(4); e > 0; e-- {
					w := pregel.Float(rng.IntN(7))
					v.AddEdge(pregel.VertexID(rng.IntN(100)), []pregel.Value{nil, &w}[rng.IntN(2)])
				}
				vs = append(vs, v)
			}
			r := sealedTestResult(t, codec, parts, vs)
			store := newQueryStore()
			store.seal(r)
			// Two workers: each holds every other partition.
			workers := [2]*retainedResult{}
			for w := range workers {
				workers[w] = &retainedResult{version: r.version, partTable: partTable{NumParts: parts}, codec: codec, parts: map[int]storage.Index{}}
				for p, idx := range r.parts {
					if p%2 == w {
						workers[w].parts[p] = idx
					}
				}
			}
			for _, k := range []int{1, 3, n - 1, n, n + 5} {
				label := fmt.Sprintf("%s, %d partitions, n=%d, k=%d", kind.name, parts, n, k)
				want := fullSortTopK(vs, k)
				got, err := r.topK(k)
				if err == nil {
					err = sameTopK(got, want)
				}
				if err != nil {
					t.Fatalf("%s: worker top-k: %v", label, err)
				}
				if got, err = store.TopK(r.version, k); err == nil {
					err = sameTopK(got, want)
				}
				if err != nil {
					t.Fatalf("%s: QueryStore.TopK: %v", label, err)
				}
				var lists [][]TopKEntry
				for _, w := range workers {
					l, err := w.topK(k)
					if err != nil {
						t.Fatal(err)
					}
					lists = append(lists, l)
				}
				if err := sameTopK(mergeTopK(lists, k), want); err != nil {
					t.Fatalf("%s: merged top-k: %v", label, err)
				}
			}
			store.closeAll()
		}
	}
}

// TestValueRankMatchesText pins the scores taken without the text round
// trip: a Double and an Int64 rank bit for bit as their rendered text
// does. A Float cannot: float64 of a float32 is not what its shortest
// text parses to.
func TestValueRankMatchesText(t *testing.T) {
	check := func(v pregel.Value) {
		t.Helper()
		got, want := valueRank(3, v), textRank(3, pregel.ValueString(v))
		if got.numeric != want.numeric || math.Float64bits(got.score) != math.Float64bits(want.score) || got.text != want.text {
			t.Fatalf("%s: direct rank %+v, text rank %+v", pregel.ValueString(v), got, want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 0.1, 1e21, 1e-7, math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		d := pregel.Double(f)
		check(&d)
	}
	for _, i := range []int64{0, math.MaxInt64, math.MinInt64, 1<<53 + 1, -(1<<53 + 1), 1<<63 - 1025} {
		n := pregel.Int64(i)
		check(&n)
	}
	rng := rand.New(rand.NewPCG(29, 3))
	for i := 0; i < 200000; i++ {
		d := pregel.Double(math.Float64frombits(rng.Uint64()))
		n := pregel.Int64(rng.Uint64() >> rng.UintN(64))
		if i%2 == 0 {
			n = -n
		}
		check(&d)
		check(&n)
	}
	f := pregel.Float(0.1)
	if float64(f) == textRank(0, pregel.ValueString(&f)).score {
		t.Fatal("float64(Float(0.1)) parses back from its text: a Float could be scored directly")
	}
}

// nonFiniteJob sets each vertex to +Inf, -Inf, NaN, -vid or vid by vid
// mod 5 and halts.
func nonFiniteJob(input string) *pregel.Job {
	return &pregel.Job{
		Name: "nonfinite",
		Program: pregel.ProgramFunc(func(_ pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
			id := float64(v.ID)
			*v.Value.(*pregel.Double) = pregel.Double([]float64{math.Inf(1), math.Inf(-1), math.NaN(), -id, id}[v.ID%5])
			v.VoteToHalt()
			return nil
		}),
		Codec:     pregel.Codec{NewVertexValue: pregel.NewDouble, NewMessage: pregel.NewDouble},
		InputPath: input,
	}
}

// nonFiniteOrder is the top-k order of nonFiniteJob's values: the finite
// ones by value descending (the vids, then the negated vids), then the
// others by text descending, "NaN" > "-Inf" > "+Inf", each by ascending
// vid.
func nonFiniteOrder(vids []uint64) []uint64 {
	sorted := slices.Sorted(slices.Values(vids))
	var out []uint64
	for _, vid := range slices.Backward(sorted) {
		if vid%5 == 4 {
			out = append(out, vid)
		}
	}
	for _, class := range []uint64{3, 2, 1, 0} {
		for _, vid := range sorted {
			if vid%5 == class {
				out = append(out, vid)
			}
		}
	}
	return out
}

// linesByVid maps a dump's rows by vid.
func linesByVid(t *testing.T, dump []byte) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	for _, line := range strings.Split(strings.TrimRight(string(dump), "\n"), "\n") { // an edgeless row ends in a tab
		vid, err := strconv.ParseUint(line[:strings.IndexByte(line, '\t')], 10, 64)
		if err != nil {
			t.Fatalf("bad dump line %q", line)
		}
		out[vid] = line
	}
	return out
}

// checkTopKRows requires got to list wantVids in order, each row with the
// dump's value and line for its vid and the value's finite score (0 for
// a non-finite value).
func checkTopKRows(t *testing.T, got []TopKEntry, wantVids []uint64, lines map[uint64]string, label string) {
	t.Helper()
	if len(got) != len(wantVids) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(wantVids))
	}
	for i, e := range got {
		value := strings.Split(lines[e.Vid], "\t")[1]
		score, _ := strconv.ParseFloat(value, 64)
		if math.IsInf(score, 0) || math.IsNaN(score) {
			score = 0
		}
		if e.Vid != wantVids[i] || e.Line != lines[e.Vid] || e.Value != value || e.Score != score {
			t.Fatalf("%s: entry %d = %+v, want vertex %d with dump line %q and score %v", label, i, e, wantVids[i], lines[wantVids[i]], score)
		}
	}
}

// TestDistributedTopKNonFinite: a Double result holding +Inf, -Inf and
// NaN answers top-k on a 2-worker cluster, the non-finite values ranked
// below every finite one, by text, and every row carries its vertex's
// dump line, not just its value.
func TestDistributedTopKNonFinite(t *testing.T) {
	g := graphgen.Webmap(60, 3, 5)
	coord := startDistCluster(t, 2, 2)
	_, out, err := runDistJob(t, coord, "nf@j1", "nonfinite", g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := linesByVid(t, out)
	order := nonFiniteOrder(g.VertexIDs())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, k := range []int{7, len(order), len(order) + 3} {
		got, err := coord.QueryTopK(ctx, "nf@j1", k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkTopKRows(t, got, order[:min(k, len(order))], lines, fmt.Sprintf("k=%d", k))
	}
}

// BenchmarkTopK: k = 10 over serve_mix's sealed result, a deltapagerank
// run on Webmap 30000 held in one QueryStore over 2 partitions.
func BenchmarkTopK(b *testing.B) {
	rt, err := NewRuntime(Options{BaseDir: b.TempDir(), Nodes: 1, PartitionsPerNode: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	if err := rt.DFS.WriteFile("/in/g", graphText(b, graphgen.Webmap(30000, 8, 1))); err != nil {
		b.Fatal(err)
	}
	adm := NewGate(rt.Cluster, 1)
	defer adm.Close()
	h, err := admit(adm, rt, algorithms.NewDeltaPageRankJob("dpr", "/in/g", "", 0))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if es, err := rt.Queries().TopK(h.Name(), 10); err != nil || len(es) != 10 {
			b.Fatalf("top-k: %v, %d entries", err, len(es))
		}
	}
}
