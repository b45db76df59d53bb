package operators

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// drive pushes frames through rt on a node of its own and returns what
// rt emitted, plus how many runs it had spilled when the input ended.
func drive(tb testing.TB, opMem int64, build func(tc *hyracks.TaskContext) hyracks.PushRuntime, in []*tuple.Frame) (out []tuple.Tuple, spills int) {
	tb.Helper()
	node, err := hyracks.NewNodeController("n", tb.TempDir(), hyracks.NodeConfig{PageSize: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	rt := build(&hyracks.TaskContext{
		Ctx: context.Background(), Node: node, JobName: "drive", OperatorID: "gb",
		NumPartitions: 1, OperatorMem: opMem,
	})
	sink := &collectWriter{}
	rt.SetOutputs([]hyracks.FrameWriter{sink})
	if err := rt.Open(); err != nil {
		tb.Fatal(err)
	}
	for _, f := range in {
		if err := rt.NextFrame(f); err != nil {
			tb.Fatal(err)
		}
	}
	if g, ok := rt.(*spillingGroupBy); ok {
		spills = len(g.runs)
	}
	if err := rt.Close(); err != nil {
		tb.Fatal(err)
	}
	return sink.out, spills
}

// collectWriter keeps a copy of every tuple it is given; with discard
// set it only counts them.
type collectWriter struct {
	out     []tuple.Tuple
	n       int
	discard bool
}

func (c *collectWriter) Open() error { return nil }
func (c *collectWriter) NextFrame(f *tuple.Frame) error {
	c.n += f.Len()
	for i := 0; !c.discard && i < f.Len(); i++ {
		c.out = append(c.out, f.Tuple(i).Materialize())
	}
	return nil
}
func (c *collectWriter) Fail(error)   {}
func (c *collectWriter) Close() error { return nil }

// packFrames packs tuples into frames the caller returns with putFrames.
func packFrames(tb testing.TB, ts []tuple.Tuple) []*tuple.Frame {
	tb.Helper()
	frames := []*tuple.Frame{tuple.GetFrame()}
	app := tuple.NewFrameAppender(frames[0])
	for _, t := range ts {
		if !app.AppendTuple(t) {
			frames = append(frames, tuple.GetFrame())
			app.Reset(frames[len(frames)-1])
			if !app.AppendTuple(t) {
				tb.Fatal("tuple does not fit an empty frame")
			}
		}
	}
	return frames
}

func putFrames(frames []*tuple.Frame) {
	for _, f := range frames {
		tuple.PutFrame(f)
	}
}

// trickyKeys draws keys of 0, 1, 7, 8, 9 and 16 bytes from a small
// alphabet that includes the zero byte: many duplicates, many keys that
// share their first 8 bytes, and short keys whose zero-padded prefix
// equals a longer key's.
func trickyKeys(rng *rand.Rand, n int) [][]byte {
	lengths := []int{0, 1, 7, 8, 9, 16}
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, lengths[rng.Intn(len(lengths))])
		for j := range k {
			k[j] = byte(rng.Intn(3)) // 0, 1, 2
			if j < 6 {
				k[j] = 1 // a long shared prefix: ties past byte 8 are common
			}
		}
		keys[i] = k
	}
	return keys
}

// stableOrder is the reference: the positions of keys after a stable
// sort by bytes.Compare.
func stableOrder(keys [][]byte) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return bytes.Compare(keys[order[i]], keys[order[j]]) < 0
	})
	return order
}

func TestKeySorterMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var keys [][]byte
		switch seed % 4 {
		case 0: // 8-byte keys only: the prefix is the whole key
			for i := 0; i < 2000; i++ {
				keys = append(keys, tuple.EncodeUint64(uint64(rng.Intn(50))))
			}
		case 1: // one length above 8: every tie needs the full key
			for i := 0; i < 2000; i++ {
				keys = append(keys, append(tuple.EncodeUint64(7), byte(rng.Intn(4)), byte(rng.Intn(2))))
			}
		case 2: // too few to be split into buckets
			keys = trickyKeys(rng, 1+rng.Intn(bucketMin-1))
		default:
			keys = trickyKeys(rng, bucketMin+rng.Intn(3000))
		}
		var s keySorter
		s.grow(len(keys))
		const perFrame = 100 // arrival order is (frame, rec)
		for i, k := range keys {
			s.add(k, uint32(i/perFrame), uint32(i%perFrame))
		}
		s.sort(func(e sortEntry) []byte { return keys[int(e.frame)*perFrame+int(e.rec)] })
		for i, want := range stableOrder(keys) {
			if got := int(s.entries[i].frame)*perFrame + int(s.entries[i].rec); got != want {
				t.Fatalf("seed %d: position %d holds input %d (key %x), want input %d (key %x)",
					seed, i, got, keys[got], want, keys[want])
			}
		}
	}
}

// concatCombiner appends payloads, so its output shows the order in
// which a group's tuples were folded.
type concatCombiner struct{}

func (concatCombiner) First(t tuple.Tuple) tuple.Tuple {
	return tuple.Tuple{t[0], append([]byte(nil), t[1]...)}
}

func (concatCombiner) Add(acc, t tuple.Tuple) tuple.Tuple {
	acc[1] = append(acc[1], t[1]...)
	return acc
}

// TestSortAndGroupByMatchReferenceAcrossSpills: whatever the budget
// makes of the input (no run, one run plus a remainder, many runs), the
// external sort is a stable sort and the sort group-by folds every
// group in arrival order.
func TestSortAndGroupByMatchReferenceAcrossSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := trickyKeys(rng, 6000)
	in := make([]tuple.Tuple, len(keys))
	for i, k := range keys {
		in[i] = tuple.Tuple{k, []byte(fmt.Sprintf("%04x", i))}
	}
	var sorted, grouped []tuple.Tuple
	for _, i := range stableOrder(keys) {
		sorted = append(sorted, in[i])
		if n := len(grouped); n > 0 && bytes.Equal(grouped[n-1][0], in[i][0]) {
			grouped[n-1] = concatCombiner{}.Add(grouped[n-1], in[i])
		} else {
			grouped = append(grouped, concatCombiner{}.First(in[i]))
		}
	}
	frames := packFrames(t, in)
	defer putFrames(frames)

	for _, c := range []struct {
		opMem     int64
		minSpills int
		maxSpills int
	}{
		{64 << 20, 0, 0},
		{int64(len(frames))*tuple.DefaultFrameSize + 64<<10, 1, 1}, // room for the frames, not for the entries too
		{8 << 10, 4, 1 << 20},
	} {
		out, spills := drive(t, c.opMem, func(tc *hyracks.TaskContext) hyracks.PushRuntime {
			return NewExternalSortRuntime(tc)
		}, frames)
		checkSame(t, fmt.Sprintf("external sort at %d bytes", c.opMem), out, sorted)
		if spills < c.minSpills || spills > c.maxSpills {
			t.Fatalf("external sort at %d bytes spilled %d runs, want %d to %d", c.opMem, spills, c.minSpills, c.maxSpills)
		}
		out, spills = drive(t, c.opMem, func(tc *hyracks.TaskContext) hyracks.PushRuntime {
			return NewGroupByRuntime(tc, SortGroupBy, concatCombiner{})
		}, frames)
		checkSame(t, fmt.Sprintf("sort group-by at %d bytes", c.opMem), out, grouped)
		if spills < c.minSpills || spills > c.maxSpills {
			t.Fatalf("sort group-by at %d bytes spilled %d runs, want %d to %d", c.opMem, spills, c.minSpills, c.maxSpills)
		}
	}
}

func checkSame(t *testing.T, what string, got, want []tuple.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !tuple.Equal(got[i], want[i]) {
			t.Fatalf("%s: tuple %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// keepFirst is a combiner that allocates nothing, so what a run
// allocates is the operator's own.
type keepFirst struct{}

func (keepFirst) First(t tuple.Tuple) tuple.Tuple    { return t }
func (keepFirst) Add(acc, _ tuple.Tuple) tuple.Tuple { return acc }

// messageFrames packs n (8-byte vid, 16-byte payload) tuples over the
// given number of distinct vids, in random order.
func messageFrames(tb testing.TB, n, vids int) []*tuple.Frame {
	rng := rand.New(rand.NewSource(11))
	ts := make([]tuple.Tuple, n)
	payload := make([]byte, 16)
	for i := range ts {
		ts[i] = tuple.Tuple{tuple.EncodeUint64(uint64(rng.Intn(vids))), payload}
	}
	return packFrames(tb, ts)
}

// TestSortGroupByAllocations guards the hot path: buffering, sorting and
// folding 50k tuples in memory allocates by the frame and by the
// doubling of the entry slice, not by the tuple or the group.
func TestSortGroupByAllocations(t *testing.T) {
	const n = 50000
	frames := messageFrames(t, n, n/4)
	defer putFrames(frames)
	node, err := hyracks.NewNodeController("n", t.TempDir(), hyracks.NodeConfig{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	tc := &hyracks.TaskContext{Ctx: context.Background(), Node: node, JobName: "allocs", OperatorID: "gb", NumPartitions: 1, OperatorMem: 64 << 20}
	sink := &collectWriter{discard: true}
	allocs := testing.AllocsPerRun(5, func() {
		rt := NewGroupByRuntime(tc, SortGroupBy, keepFirst{})
		rt.SetOutputs([]hyracks.FrameWriter{sink})
		if err := rt.Open(); err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if err := rt.NextFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if sink.n == 0 {
		t.Fatal("group-by emitted nothing")
	}
	if perTuple := allocs / n; perTuple >= 0.1 {
		t.Fatalf("in-memory sort group-by: %.0f allocations for %d tuples (%.3f per tuple), want under 0.1", allocs, n, perTuple)
	}
}

// sumInPlace sums float64 payloads into a copy the accumulator owns: one
// allocation per group, none per tuple.
type sumInPlace struct{}

func (sumInPlace) First(t tuple.Tuple) tuple.Tuple {
	t[1] = append([]byte(nil), t[1]...)
	return t
}

func (sumInPlace) Add(acc, t tuple.Tuple) tuple.Tuple {
	binary.LittleEndian.PutUint64(acc[1], math.Float64bits(tuple.DecodeFloat64(acc[1])+tuple.DecodeFloat64(t[1])))
	return acc
}

// The micro-benchmarks run one partition's share of a PageRank superstep
// on the 30k-vertex Webmap, 119k messages with 8-byte keys, at the two
// operator-memory carves the benchmark's workloads run at: 4 MiB (pr_fit,
// pr_cluster, serve_mix: RAM/16) and 64 KiB (pr_spill).
const benchTuples = 119000

func benchGroupBy(b *testing.B, in []*tuple.Frame, build func(tc *hyracks.TaskContext) hyracks.PushRuntime) {
	defer putFrames(in)
	for _, opMem := range []int64{4 << 20, 64 << 10} {
		b.Run(fmt.Sprintf("mem=%dKiB", opMem>>10), func(b *testing.B) {
			node, err := hyracks.NewNodeController("n", b.TempDir(), hyracks.NodeConfig{PageSize: 1024})
			if err != nil {
				b.Fatal(err)
			}
			tc := &hyracks.TaskContext{Ctx: context.Background(), Node: node, JobName: "bench", OperatorID: "gb", NumPartitions: 1, OperatorMem: opMem}
			sink := &collectWriter{discard: true}
			spills := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt := build(tc)
				rt.SetOutputs([]hyracks.FrameWriter{sink})
				if err := rt.Open(); err != nil {
					b.Fatal(err)
				}
				for _, f := range in {
					if err := rt.NextFrame(f); err != nil {
						b.Fatal(err)
					}
				}
				if g, ok := rt.(*spillingGroupBy); ok {
					spills += len(g.runs)
				}
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchTuples, "ns/tuple")
			b.ReportMetric(float64(spills)/float64(b.N), "spills/op")
		})
	}
}

func BenchmarkGroupBySort(b *testing.B) {
	benchGroupBy(b, messageFrames(b, benchTuples, 30000), func(tc *hyracks.TaskContext) hyracks.PushRuntime {
		return NewGroupByRuntime(tc, SortGroupBy, sumInPlace{})
	})
}

func BenchmarkGroupByHashSort(b *testing.B) {
	benchGroupBy(b, messageFrames(b, benchTuples, 30000), func(tc *hyracks.TaskContext) hyracks.PushRuntime {
		return NewGroupByRuntime(tc, HashSortGroupBy, sumInPlace{})
	})
}

func BenchmarkGroupByPreclustered(b *testing.B) {
	unsorted := messageFrames(b, benchTuples, 30000)
	sorted, _ := drive(b, 64<<20, func(tc *hyracks.TaskContext) hyracks.PushRuntime { return NewExternalSortRuntime(tc) }, unsorted)
	putFrames(unsorted)
	benchGroupBy(b, packFrames(b, sorted), func(tc *hyracks.TaskContext) hyracks.PushRuntime {
		return NewGroupByRuntime(tc, PreclusteredGroupBy, sumInPlace{})
	})
}

func BenchmarkExternalSort(b *testing.B) {
	benchGroupBy(b, messageFrames(b, benchTuples, 30000), func(tc *hyracks.TaskContext) hyracks.PushRuntime {
		return NewExternalSortRuntime(tc)
	})
}
