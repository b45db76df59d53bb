package operators

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// driveFields is drive with the input handed to the runtime tuple by
// tuple through AddFields, from one buffer that is overwritten once each
// call returns: what the runtime keeps of a tuple must be its own copy.
func driveFields(tb testing.TB, opMem int64, kind GroupByKind, c Combiner, in []tuple.Tuple) (out []tuple.Tuple, spills int) {
	tb.Helper()
	g := NewGroupByRuntime(testContext(tb, opMem), kind, c).(*spillingGroupBy)
	sink := &collectWriter{}
	g.SetOutputs([]hyracks.FrameWriter{sink})
	if err := g.Open(); err != nil {
		tb.Fatal(err)
	}
	var buf []byte
	var hdr tuple.Tuple
	for _, t := range in {
		buf, hdr = copyInto(buf, hdr, t)
		if err := g.AddFields(hdr); err != nil {
			tb.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xee
		}
	}
	spills = len(g.runs)
	if err := g.Close(); err != nil {
		tb.Fatal(err)
	}
	return sink.out, spills
}

func keyOrdered(ts []tuple.Tuple) bool {
	return slices.IsSortedFunc(ts, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
}

// TestUnorderedTableMatchesHashSort: the unordered table emits what
// HashSort emits, as a multiset, each key once: in memory, where a word
// table emits its groups in slot order (a word sum) and the sort
// group-by in key order (a concatenation, which folds no words), and
// after spills, where it sorts and merges as HashSort does. HashSort's
// output is in key order throughout, and the tuples a runtime of any
// table or sort kind is handed by AddFields come out as those it reads
// from frames.
func TestUnorderedTableMatchesHashSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n, vids = 20000, 5000
	var folds int
	combiners := []struct {
		name    string
		c       Combiner
		payload func(i int) []byte
	}{
		{"word sum", wordSum{&folds, 8}, func(i int) []byte { return tuple.EncodeUint64(uint64(i)) }},
		{"concat (grows)", concatCombiner{}, func(i int) []byte { return []byte(fmt.Sprintf("%04x", i%0x10000)) }},
	}
	for _, cb := range combiners {
		in := make([]tuple.Tuple, n)
		for i := range in {
			in[i] = tuple.Tuple{tuple.EncodeUint64(uint64(rng.Intn(vids))), cb.payload(i)}
		}
		frames := packFrames(t, in)
		for _, mem := range []int64{64 << 20, 64 << 10} {
			what := fmt.Sprintf("%s at %d bytes", cb.name, mem)
			build := func(kind GroupByKind) func(tc *hyracks.TaskContext) hyracks.PushRuntime {
				return func(tc *hyracks.TaskContext) hyracks.PushRuntime { return NewGroupByRuntime(tc, kind, cb.c) }
			}
			hs, hsSpills := drive(t, testContext(t, mem), build(HashSortGroupBy), frames)
			if !keyOrdered(hs) {
				t.Fatalf("%s: HashSort's output is not in key order", what)
			}
			un, unSpills := drive(t, testContext(t, mem), build(UnorderedHashGroupBy), frames)
			if unSpills != hsSpills || (mem == 64<<20) != (unSpills == 0) {
				t.Fatalf("%s: %d spills unordered, %d under HashSort", what, unSpills, hsSpills)
			}
			// A word table that fits is unsorted (the first arrivals of
			// random vids are not in order); merged, or the sort group-by's,
			// the output is in key order.
			_, words := cb.c.(WordFolder)
			if keyOrdered(un) != (unSpills > 0 || !words) {
				t.Fatalf("%s: after %d spills the unordered output is in key order: %v", what, unSpills, keyOrdered(un))
			}
			sorted := slices.Clone(un)
			slices.SortStableFunc(sorted, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
			checkSame(t, what+", unordered as a multiset", sorted, hs)

			for _, c := range []struct {
				kind GroupByKind
				want []tuple.Tuple
			}{{UnorderedHashGroupBy, un}, {HashSortGroupBy, hs}} {
				got, _ := driveFields(t, mem, c.kind, cb.c, in)
				checkSame(t, fmt.Sprintf("%s, kind %d, by AddFields", what, c.kind), got, c.want)
			}
		}
		// The sort policy, where AddFields buffers each tuple and an entry.
		sorted, _ := drive(t, testContext(t, 64<<10), func(tc *hyracks.TaskContext) hyracks.PushRuntime {
			return NewGroupByRuntime(tc, SortGroupBy, cb.c)
		}, frames)
		got, _ := driveFields(t, 64<<10, SortGroupBy, cb.c, in)
		checkSame(t, cb.name+", sort, by AddFields", got, sorted)
		putFrames(frames)
	}
}
