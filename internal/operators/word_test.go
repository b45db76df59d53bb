package operators

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// wordSum sums payloads of width bytes, read as little-endian integers,
// modulo 2^(8*width): through Add, and as a WordFolder, so that a hash
// group-by over it is a word table and the merge folds it as words.
// folds counts the folds the word fold took.
type wordSum struct {
	folds *int
	width int
}

func (c wordSum) word(p []byte) uint64 {
	var b [8]byte
	copy(b[:], p)
	return binary.LittleEndian.Uint64(b[:])
}

func (c wordSum) put(p []byte, w uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], w)
	copy(p, b[:c.width])
}

func (wordSum) First(t tuple.Tuple) tuple.Tuple { return t }

func (c wordSum) Add(acc, t tuple.Tuple) tuple.Tuple {
	c.put(acc[1], c.word(acc[1])+c.word(t[1]))
	return acc
}

func (c wordSum) WordFold() (func(acc, in uint64) uint64, int) {
	mask := uint64(math.MaxUint64) >> (64 - 8*c.width)
	return func(acc, in uint64) uint64 {
		*c.folds++
		return (acc + in) & mask
	}, c.width
}

// wordTuples makes n (vid, payload) tuples over the given number of
// distinct vids, vid 0 and the largest vid among them, with payloads of
// width bytes of which half are 0: the groups that see only those keep
// an accumulator whose bits are all 0.
func wordTuples(rng *rand.Rand, n, vids, width int) []tuple.Tuple {
	keys := []uint64{0, math.MaxUint64, 1 << 63, math.MaxUint64 - 1}
	for len(keys) < vids {
		keys = append(keys, rng.Uint64())
	}
	in := make([]tuple.Tuple, n)
	for i := range in {
		k, p := rng.Intn(vids), make([]byte, width)
		if k%2 == 1 {
			rng.Read(p)
		}
		in[i] = tuple.Tuple{tuple.EncodeUint64(keys[k]), p}
	}
	return in
}

// TestWordTableKeepsEveryGroup: a word table, whose free slot is a key
// of 0, keeps the groups of vid 0 and of the largest vid and groups
// whose accumulator's bits are 0. It does so in memory, spilling at a
// half-frame budget and at 40 KiB, by frames and by fields, for 8-byte
// and 1-byte payloads, and over three rounds of one task, the later
// ones taking the table the earlier left (takeTable, handOn). After each
// round no frame is leased, nothing is on the budget and no file is
// left.
func TestWordTableKeepsEveryGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var folds int
	for _, width := range []int{8, 1} {
		c := wordSum{&folds, width}
		rounds := [][]tuple.Tuple{
			wordTuples(rng, 12000, 4000, width),
			wordTuples(rng, 300, 100, width),
			wordTuples(rng, 12000, 4000, width),
		}
		for _, kind := range []GroupByKind{HashSortGroupBy, UnorderedHashGroupBy} {
			for _, b := range []struct {
				opMem     int64
				minSpills int
			}{
				{64 << 20, 0},
				{40 << 10, 4},
				{tuple.DefaultFrameSize / 2, 8},
			} {
				for _, fields := range []bool{false, true} {
					tc := testContext(t, b.opMem)
					for r, in := range rounds {
						what := fmt.Sprintf("width %d, kind %d, at %d bytes, fields %v, round %d", width, kind, b.opMem, fields, r+1)
						frames := packFrames(t, in)
						leased := tuple.LeasedFrames()
						g := NewGroupByRuntime(tc, kind, c).(*spillingGroupBy)
						sink := &collectWriter{}
						g.SetOutputs([]hyracks.FrameWriter{sink})
						if err := g.Open(); err != nil {
							t.Fatal(err)
						}
						if !g.table {
							t.Fatalf("%s: not a word table", what)
						}
						if r > 0 && b.opMem == 64<<20 && len(g.sorter.entries) == 0 {
							t.Fatalf("%s: the table of the round before was not handed on", what)
						}
						folds = 0
						if fields {
							for _, tu := range in {
								if err := g.AddFields(tu); err != nil {
									t.Fatal(err)
								}
							}
						} else {
							for _, f := range frames {
								if err := g.NextFrame(f); err != nil {
									t.Fatal(err)
								}
							}
						}
						if folds == 0 {
							t.Fatalf("%s: nothing was folded as a word", what)
						}
						checkProbes(t, g)
						checkRunsDistinct(t, g)
						if spills := len(g.runs); r != 1 && spills < b.minSpills {
							t.Fatalf("%s: %d spills, want %d or more", what, spills, b.minSpills)
						}
						if err := g.Close(); err != nil {
							t.Fatal(err)
						}
						got := sink.out
						if kind == UnorderedHashGroupBy {
							slices.SortFunc(got, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
						}
						checkSame(t, what, got, referenceFold(in, c))
						if n := tuple.LeasedFrames(); n != leased {
							t.Errorf("%s: %d frames leased after Close, %d before Open", what, n, leased)
						}
						putFrames(frames)
						if used := g.budget.Used(); used != 0 {
							t.Errorf("%s: %d bytes still on the budget after Close", what, used)
						}
						left, err := os.ReadDir(tc.Node.JobDir(tc.RunDir))
						if err != nil && !os.IsNotExist(err) {
							t.Fatal(err)
						}
						for _, e := range left {
							t.Errorf("%s: %s left behind", what, e.Name())
						}
					}
				}
			}
		}
	}
}

// TestWordTableAllocations guards the word table's hot path: folding 50k
// (8-byte vid, 8-byte word) tuples into a table in memory, by frames and
// by fields, allocates by the frame and by the doubling of the table,
// not by the tuple or the group.
func TestWordTableAllocations(t *testing.T) {
	const n = 50000
	frames := sumFrames(t, 4, n, n/4)
	defer putFrames(frames)
	var in []tuple.Tuple
	for _, f := range frames {
		for i := 0; i < f.Len(); i++ {
			in = append(in, f.Tuple(i).Materialize())
		}
	}
	var folds int
	tc := testContext(t, 64<<20)
	sink := &collectWriter{discard: true}
	for _, fields := range []bool{false, true} {
		allocs := testing.AllocsPerRun(5, func() {
			g := NewGroupByRuntime(tc, HashSortGroupBy, wordSum{&folds, 8}).(*spillingGroupBy)
			g.SetOutputs([]hyracks.FrameWriter{sink})
			if err := g.Open(); err != nil {
				t.Fatal(err)
			}
			if fields {
				for _, tu := range in {
					if err := g.AddFields(tu); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				for _, f := range frames {
					if err := g.NextFrame(f); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if folds == 0 || sink.n == 0 {
			t.Fatalf("fields %v: %d word folds, %d tuples out", fields, folds, sink.n)
		}
		if perTuple := allocs / n; perTuple >= 0.1 {
			t.Fatalf("fields %v: %.0f allocations for %d tuples (%.3f per tuple), want under 0.1", fields, allocs, n, perTuple)
		}
		t.Logf("fields %v: %.0f allocations for %d tuples", fields, allocs, n)
	}
}

// FuzzWordTable feeds fuzzed streams of (key, payload) tuples through a
// group-by over a word folder at a fuzzed budget and checks that it emits
// what folding every group in arrival order gives: a word table of either
// hash kind, or the word merge of the sort group-by or of the
// preclustered group-by, which is handed the stream sorted. Each tuple
// takes 4 bytes of data: a 16-bit key, spread over the 8 bytes so that 0
// stays 0 and 0xffff is the largest vid, and a 16-bit payload.
func FuzzWordTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 255, 255, 1, 0, 0, 0, 7, 7, 255, 255, 0, 0}, uint16(300), uint8(0))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 100), uint16(0), uint8(3))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 100), uint16(0), uint8(4))
	f.Add([]byte{0, 0, 0, 0, 255, 255, 1, 0, 0, 0, 7, 7, 255, 255, 0, 0}, uint16(300), uint8(7))
	f.Add(bytes.Repeat([]byte{9, 0, 8, 0, 7, 0, 6, 0}, 300), uint16(2000), uint8(12))
	// One node and directory serve every input: driveFolder checks that
	// each leaves nothing behind.
	tc := testContext(f, 0)
	f.Fuzz(func(t *testing.T, data []byte, budget uint16, mode uint8) {
		tc.OperatorMem = int64(budget)
		width := []int{8, 1}[mode&1]
		kind := []GroupByKind{HashSortGroupBy, UnorderedHashGroupBy, SortGroupBy, PreclusteredGroupBy}[mode>>1&3]
		fields := mode&8 != 0
		var folds int
		c := wordSum{&folds, width}
		var in []tuple.Tuple
		for ; len(data) >= 4; data = data[4:] {
			k := uint64(binary.LittleEndian.Uint16(data)) * 0x0001000100010001
			p := make([]byte, 8)
			binary.LittleEndian.PutUint64(p, uint64(binary.LittleEndian.Uint16(data[2:]))*0x0000010000000101)
			in = append(in, tuple.Tuple{tuple.EncodeUint64(k), p[:width]})
		}
		want := referenceFold(in, c)
		var got []tuple.Tuple
		if kind == PreclusteredGroupBy {
			slices.SortStableFunc(in, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
			frames := packFrames(t, in)
			defer putFrames(frames)
			got, _ = drive(t, tc, func(tc *hyracks.TaskContext) hyracks.PushRuntime {
				return NewGroupByRuntime(tc, kind, c)
			}, frames)
		} else {
			frames := packFrames(t, in)
			defer putFrames(frames)
			got, _ = driveFolder(t, tc, kind, c, in, frames, fields)
		}
		if kind == UnorderedHashGroupBy {
			slices.SortFunc(got, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
		}
		checkSame(t, "fuzzed stream", got, want)
	})
}

// driveFolder runs a group-by of the given kind over in, by frames or, if
// fields is set, tuple by tuple through AddFields from one buffer that is
// overwritten after each call. It checks that the runtime gives back
// everything it took: no frame leased, nothing on its budget, no file left.
func driveFolder(t *testing.T, tc *hyracks.TaskContext, kind GroupByKind, c Combiner, in []tuple.Tuple, frames []*tuple.Frame, fields bool) (out []tuple.Tuple, spills int) {
	t.Helper()
	leased := tuple.LeasedFrames()
	g := NewGroupByRuntime(tc, kind, c).(*spillingGroupBy)
	sink := &collectWriter{}
	g.SetOutputs([]hyracks.FrameWriter{sink})
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	if fields {
		var buf []byte
		var hdr tuple.Tuple
		for _, tu := range in {
			buf, hdr = copyInto(buf, hdr, tu)
			if err := g.AddFields(hdr); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 0xee
			}
		}
	} else {
		for _, f := range frames {
			if err := g.NextFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	spills = len(g.runs)
	if g.table {
		checkProbes(t, g)
		checkRunsDistinct(t, g)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tuple.LeasedFrames(); got != leased {
		t.Errorf("%d frames leased after Close, %d before Open", got, leased)
	}
	if used := g.budget.Used(); used != 0 {
		t.Errorf("%d bytes still on the budget after Close", used)
	}
	left, err := os.ReadDir(tc.Node.JobDir(tc.RunDir))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("%s left behind", e.Name())
	}
	return sink.out, spills
}

// checkProbes checks that the probe for every group of g's word table
// reaches the group's slot before it meets a free one: else a later
// tuple of the group would start it again.
func checkProbes(t *testing.T, g *spillingGroupBy) {
	t.Helper()
	es := g.sorter.entries
	for i, e := range es {
		if e.key == 0 {
			continue
		}
		j := g.sorter.slotOf(e.key)
		for j != i && es[j].key != 0 {
			j = (j + 1) & (len(es) - 1)
		}
		if j != i {
			t.Fatalf("the group in slot %d of %d: its probe ends at free slot %d", i, len(es), j)
		}
	}
}

// checkRunsDistinct checks that every run g's table spilled holds each
// key once, in key order.
func checkRunsDistinct(t *testing.T, g *spillingGroupBy) {
	t.Helper()
	for i, run := range g.runs {
		rr := g.file.ReadRun(run)
		var last []byte
		for n := 0; ; n++ {
			r, err := rr.NextRef()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if k := r.Field(0); n == 0 || bytes.Compare(last, k) < 0 {
				last = append(last[:0], k...)
			} else {
				t.Fatalf("run %d: key %x follows key %x", i, k, last)
			}
		}
		rr.Close()
	}
}

// wordsOnly is wordSum's word fold alone: its First and Add panic, so
// that a group-by that folds it through them fails.
type wordsOnly struct{ sum wordSum }

func (wordsOnly) First(tuple.Tuple) tuple.Tuple                  { panic("First of a word folder") }
func (wordsOnly) Add(_, _ tuple.Tuple) tuple.Tuple               { panic("Add of a word folder") }
func (c wordsOnly) WordFold() (func(acc, in uint64) uint64, int) { return c.sum.WordFold() }

// TestWordMergeMatchesReference: the merge folds a word folder's groups
// as words, and calls neither First nor Add: the sort group-by, in
// memory and spilling at the 64 KiB carve, the preclustered group-by
// over the sorted stream, a HashSort table that spills at 64 KiB and
// merges its runs, and MergeSources over sorted slices all emit what
// folding every group through wordSum's Add gives, for 8-byte and 1-byte
// payloads, by frames and by fields.
func TestWordMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, width := range []int{8, 1} {
		var folds int
		sum := wordSum{&folds, width}
		c := wordsOnly{sum}
		in := wordTuples(rng, 20000, 6000, width)
		want := referenceFold(in, sum)
		frames := packFrames(t, in)
		sorted := slices.Clone(in)
		slices.SortStableFunc(sorted, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
		sortedFrames := packFrames(t, sorted)
		for _, r := range []struct {
			kind      GroupByKind
			opMem     int64
			minSpills int
		}{
			{SortGroupBy, 64 << 20, 0},
			{SortGroupBy, 64 << 10, 4},
			{HashSortGroupBy, 64 << 10, 2},
		} {
			for _, fields := range []bool{false, true} {
				what := fmt.Sprintf("width %d, kind %d, at %d bytes, fields %v", width, r.kind, r.opMem, fields)
				folds = 0
				got, spills := driveFolder(t, testContext(t, r.opMem), r.kind, c, in, frames, fields)
				checkSame(t, what, got, want)
				if spills < r.minSpills || folds == 0 {
					t.Fatalf("%s: %d spills, want %d or more, and %d word folds", what, spills, r.minSpills, folds)
				}
			}
		}
		got, _ := drive(t, testContext(t, 64<<10), func(tc *hyracks.TaskContext) hyracks.PushRuntime {
			return NewGroupByRuntime(tc, PreclusteredGroupBy, c)
		}, sortedFrames)
		checkSame(t, fmt.Sprintf("width %d, preclustered", width), got, want)

		srcs := make([]TupleSource, 5)
		for i := range srcs {
			var part []tuple.Tuple
			for j := i; j < len(sorted); j += len(srcs) {
				part = append(part, sorted[j])
			}
			srcs[i] = NewSliceSource(part)
		}
		got = nil
		if err := MergeSources(srcs, c, func(tp tuple.Tuple) error {
			got = append(got, tp.Clone())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		checkSame(t, fmt.Sprintf("width %d, MergeSources", width), got, want)
		putFrames(frames)
		putFrames(sortedFrames)
	}
}

// TestWordMergeAllocations guards the word merge's hot path: merging 8
// sorted sources of 50k (8-byte vid, 8-byte word) tuples in all, over
// 12.5k keys, allocates the merge's loser tree and nothing by the tuple
// or the group.
func TestWordMergeAllocations(t *testing.T) {
	const n, k = 50000, 8
	rng := rand.New(rand.NewSource(46))
	var folds int
	c := wordsOnly{wordSum{&folds, 8}}
	parts := make([][]tuple.Tuple, k)
	for _, tp := range wordTuples(rng, n, n/4, 8) {
		s := rng.Intn(k)
		parts[s] = append(parts[s], tp)
	}
	srcs := make([]*frameSource, k)
	refs := make([]refSource, k)
	for s, part := range parts {
		slices.SortStableFunc(part, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
		srcs[s] = &frameSource{frames: packFrames(t, part)}
		defer putFrames(srcs[s].frames)
		refs[s] = srcs[s].NextRef
	}
	groups := 0
	out := &folder{combiner: c, words: wordsOf(c), emit: func(tuple.Tuple) error {
		groups++
		return nil
	}}
	allocs := testing.AllocsPerRun(5, func() {
		for _, s := range srcs {
			s.f, s.i = 0, 0
		}
		if err := mergeRuns(refs, out); err != nil {
			t.Fatal(err)
		}
	})
	if folds == 0 || groups == 0 {
		t.Fatalf("%d word folds, %d groups out", folds, groups)
	}
	if allocs > 8 {
		t.Fatalf("merging %d tuples of %d sources: %.0f allocations, want 8 or fewer", n, k, allocs)
	}
	t.Logf("merging %d tuples of %d sources: %.0f allocations", n, k, allocs)
}
