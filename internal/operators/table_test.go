package operators

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// The combiners the table is tested with are associative, so that the
// fold of a group's partial folds (what a spill and the merge make of it)
// is the fold of its tuples in arrival order, which is the reference.

// prefixMin keeps the first payload of the group, cut to the length of
// the shortest: the accumulator is First's argument and shrinks in place.
type prefixMin struct{}

func (prefixMin) First(t tuple.Tuple) tuple.Tuple { return t }

func (prefixMin) Add(acc, t tuple.Tuple) tuple.Tuple {
	acc[1] = acc[1][:min(len(acc[1]), len(t[1]))]
	return acc
}

// sumOwned is the shape of the benchmark's combiner: First returns a new
// tuple with a payload of its own, Add sums into acc's payload in place.
type sumOwned struct{}

func (sumOwned) First(t tuple.Tuple) tuple.Tuple {
	return tuple.Tuple{t[0], append([]byte(nil), t[1]...)}
}

func (sumOwned) Add(acc, t tuple.Tuple) tuple.Tuple {
	binary.BigEndian.PutUint64(acc[1], binary.BigEndian.Uint64(acc[1])+binary.BigEndian.Uint64(t[1]))
	return acc
}

// testContext is a task context on a node of its own, with opMem bytes of
// operator memory and its temporary files in the node's "job" directory.
func testContext(tb testing.TB, opMem int64) *hyracks.TaskContext {
	tb.Helper()
	node, err := hyracks.NewNodeController("n", tb.TempDir(), hyracks.NodeConfig{PageSize: 1024})
	if err != nil {
		tb.Fatal(err)
	}
	return &hyracks.TaskContext{
		Ctx: context.Background(), Node: node, JobName: "test", OperatorID: "gb", RunDir: "job",
		NumPartitions: 1, OperatorMem: opMem,
	}
}

// referenceFold folds every group in arrival order, on copies, and
// returns the groups in key order.
func referenceFold(in []tuple.Tuple, c Combiner) []tuple.Tuple {
	var out []tuple.Tuple
	at := map[string]int{}
	for _, t := range in {
		if i, ok := at[string(t[0])]; ok {
			out[i] = c.Add(out[i], t.Clone())
		} else {
			at[string(t[0])] = len(out)
			out = append(out, c.First(t.Clone()))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return bytes.Compare(out[i][0], out[j][0]) < 0 })
	return out
}

// tableRun is what driveTable saw of one run of the hash group-by.
type tableRun struct {
	out     []tuple.Tuple
	spills  int
	peak    int64 // of the operator's budget
	longest int   // run of taken slots in the table when the input ended
}

func driveTable(t *testing.T, opMem int64, c Combiner, in []*tuple.Frame) tableRun {
	t.Helper()
	g := NewGroupByRuntime(testContext(t, opMem), HashSortGroupBy, c).(*spillingGroupBy)
	sink := &collectWriter{}
	g.SetOutputs([]hyracks.FrameWriter{sink})
	if err := g.Open(); err != nil {
		t.Fatal(err)
	}
	for _, f := range in {
		if err := g.NextFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	res := tableRun{spills: len(g.runs)}
	taken, at := 0, 0
	es := g.sorter.entries
	for i := 0; i < 2*len(es); i++ { // twice around: a run may wrap
		if es[i%len(es)].frame == 0 {
			at = 0
			continue
		}
		if at++; at > res.longest {
			res.longest = at
		}
		if i < len(es) {
			taken++
		}
	}
	if taken != g.live || 4*taken > 3*len(es) {
		t.Fatalf("table of %d slots: %d taken, live says %d", len(es), taken, g.live)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	res.out, res.peak = sink.out, g.budget.Peak()
	if used := g.budget.Used(); used != 0 {
		t.Fatalf("%d bytes still on the budget after Close", used)
	}
	return res
}

// TestCombineTableMatchesReference: whatever the keys look like, whatever
// the combiner does with its accumulator and however often the budget
// makes the table spill, the hash group-by emits what folding every
// group in arrival order gives, in key order.
func TestCombineTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 12000
	vids := func(f func(i int) uint64) [][]byte {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = tuple.EncodeUint64(f(rng.Intn(n / 3)))
		}
		return keys
	}
	keySets := []struct {
		name string
		keys [][]byte
	}{
		{"tricky", trickyKeys(rng, n)},
		{"stride 1", vids(func(i int) uint64 { return uint64(i) })},
		{"stride 2^20", vids(func(i int) uint64 { return uint64(i) << 20 })},
		{"stride 2^40", vids(func(i int) uint64 { return uint64(i) << 40 })},
		{"3 mod 4", vids(func(i int) uint64 { return 4*uint64(i) + 3 })},
		{"5 mod 7", vids(func(i int) uint64 { return 7*uint64(i) + 5 })},
	}
	combiners := []struct {
		name    string
		c       Combiner
		payload func(i int) []byte
	}{
		{"concat (grows, shows the order)", concatCombiner{}, func(i int) []byte { return []byte(fmt.Sprintf("%04x", i)) }},
		{"prefix (shrinks, is First's argument)", prefixMin{}, func(i int) []byte { return []byte(fmt.Sprintf("%04x-----------", i))[:4+rng.Intn(12)] }},
		{"sum in place (First returns a new tuple)", sumOwned{}, func(i int) []byte { return tuple.EncodeUint64(uint64(i)) }},
		{"sum (every result a new payload)", sumCombiner{}, func(i int) []byte { return tuple.EncodeFloat64(float64(i)) }},
	}
	for _, ks := range keySets {
		for _, cb := range combiners {
			in := make([]tuple.Tuple, n)
			for i, k := range ks.keys {
				in[i] = tuple.Tuple{k, cb.payload(i)}
			}
			want := referenceFold(in, cb.c)
			frames := packFrames(t, in)
			what := ks.name + ", " + cb.name
			fits := driveTable(t, 64<<20, cb.c, frames)
			checkSame(t, what+", in memory", fits.out, want)
			if fits.spills != 0 {
				t.Fatalf("%s: %d spills at 64 MiB", what, fits.spills)
			}
			// A good hash at 3/4 full leaves runs of a few dozen slots; keys
			// that share their slots leave one as long as the table is full
			// (as the tricky keys do, that share their first 8 bytes, which
			// are all of a key that the hash sees).
			if ks.name != "tricky" && fits.longest > 200 {
				t.Fatalf("%s: %d groups, and a probe may have to pass %d slots", what, len(want), fits.longest)
			}
			for _, b := range []struct {
				opMem     int64
				minSpills int
			}{
				{fits.peak * 3 / 4, 1},
				{40 << 10, 4},                   // a frame and a small table
				{tuple.DefaultFrameSize / 2, 1}, // less than a frame
			} {
				got := driveTable(t, b.opMem, cb.c, frames)
				checkSame(t, fmt.Sprintf("%s, at %d bytes", what, b.opMem), got.out, want)
				if got.spills < b.minSpills {
					t.Fatalf("%s, at %d bytes: %d spills, want %d or more", what, b.opMem, got.spills, b.minSpills)
				}
			}
			putFrames(frames)
		}
	}
}

// TestGrownAccumulatorSurvivesSpill: an accumulator that outgrows its
// record when the frame is full and the budget has no other must be in
// the output once, whole: not in the run written to make room and again
// in the next buffer, and not in neither.
func TestGrownAccumulatorSurvivesSpill(t *testing.T) {
	big := func(c byte) []byte { return bytes.Repeat([]byte{c}, 10<<10) }
	key := tuple.EncodeUint64
	in := []tuple.Tuple{
		{key(5), []byte("a")},
		{key(1), big('b')}, {key(9), big('c')}, {key(3), big('d')}, // the frame is full now
		{key(5), []byte("e")}, // group 5 grows: no room, no frame
		{key(9), []byte("f")}, // group 9 is in the run; this starts it again
		{key(5), []byte("g")},
		{key(1), big('h')}, {key(7), big('i')},
		{key(5), big('j')}, // and once more, with a second run
		{key(5), []byte("k")},
	}
	want := referenceFold(in, concatCombiner{})
	frames := packFrames(t, in)
	defer putFrames(frames)
	// The table's first slots, one frame, and not a second.
	got := driveTable(t, minSortEntries*sortEntryBytes+tuple.DefaultFrameSize+1024, concatCombiner{}, frames)
	checkSame(t, "grown accumulator", got.out, want)
	if got.spills != 2 {
		t.Fatalf("%d spills, want 2", got.spills)
	}
}

// TestSortGroupBySpillsWhenFull pins how many tuples the sort policy
// buffers before it spills: at 64 KiB what one frame holds beside the
// entries, at 4 MiB more than the 65536 entries after which the budget
// refuses to double the slice, because the slice then grows by what the
// budget still has.
func TestSortGroupBySpillsWhenFull(t *testing.T) {
	const n = 160000
	frames := messageFrames(t, n, n/4)
	defer putFrames(frames)
	perFrame := frames[0].Len()
	for _, c := range []struct {
		opMem    int64
		min, max int
	}{
		{64 << 10, perFrame, perFrame},
		{4 << 20, 72000, 76000},
	} {
		g := NewGroupByRuntime(testContext(t, c.opMem), SortGroupBy, nil).(*spillingGroupBy)
		g.SetOutputs([]hyracks.FrameWriter{&collectWriter{discard: true}})
		if err := g.Open(); err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if err := g.NextFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if len(g.runs) < 2 {
			t.Fatalf("%d bytes: %d runs", c.opMem, len(g.runs))
		}
		for i, r := range g.runs {
			if got := int(r.Count()); got < c.min || got > c.max {
				t.Errorf("%d bytes: run %d holds %d tuples, want %d to %d", c.opMem, i, got, c.min, c.max)
			}
		}
		if peak := g.budget.Peak(); peak > c.opMem {
			t.Errorf("%d bytes: the budget peaked at %d", c.opMem, peak)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHashGroupByAllocations guards the hot path: folding 50k tuples into
// a table in memory allocates by the frame and by the doubling of the
// table, not by the tuple or the group.
func TestHashGroupByAllocations(t *testing.T) {
	const n = 50000
	frames := messageFrames(t, n, n/4)
	defer putFrames(frames)
	tc := testContext(t, 64<<20)
	sink := &collectWriter{discard: true}
	allocs := testing.AllocsPerRun(5, func() {
		rt := NewGroupByRuntime(tc, HashSortGroupBy, keepFirst{})
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
		t.Fatalf("in-memory hash group-by: %.0f allocations for %d tuples (%.3f per tuple), want under 0.1", allocs, n, perTuple)
	}
}

// refusingWriter takes frames until it has taken the given number, then
// refuses every other.
type refusingWriter struct {
	collectWriter
	frames int
}

func (w *refusingWriter) NextFrame(f *tuple.Frame) error {
	if w.frames == 0 {
		return errors.New("downstream refused a frame")
	}
	w.frames--
	return w.collectWriter.NextFrame(f)
}

// TestHashGroupByFailureReturnsEverything: a Fail with a table half
// built and runs on disk, a run that cannot be written, and a final
// merge whose output is refused after some of it went out, each leave no
// frame leased, nothing on the budget and no run file behind.
func TestHashGroupByFailureReturnsEverything(t *testing.T) {
	frames := messageFrames(t, 20000, 5000)
	defer putFrames(frames)
	for _, fail := range []string{"downstream", "write", "merge"} {
		tc := testContext(t, 128<<10)
		scratch := tc.Node.JobDir(tc.RunDir)
		leased := tuple.LeasedFrames()
		g := NewGroupByRuntime(tc, HashSortGroupBy, sumInPlace{}).(*spillingGroupBy)
		sink := &refusingWriter{collectWriter: collectWriter{discard: true}, frames: 2}
		g.SetOutputs([]hyracks.FrameWriter{sink})
		if err := g.Open(); err != nil {
			t.Fatal(err)
		}
		var failure error
		for _, f := range frames[:len(frames)-1] {
			if failure = g.NextFrame(f); failure != nil {
				break
			}
			if fail == "write" && len(g.runs) == 2 {
				// The operator's one file is closed under it after the
				// second run: the third run's write fails.
				g.file.CloseWrite()
			}
		}
		if (fail == "write") != (failure != nil) {
			t.Fatalf("%s fails: NextFrame returned %v", fail, failure)
		}
		if failure == nil && (len(g.runs) < 3 || g.live == 0) {
			t.Fatalf("%d runs and %d groups in the table: nothing to fail in the middle of", len(g.runs), g.live)
		}
		switch fail {
		case "downstream":
			g.Fail(errors.New("downstream failed"))
		case "write":
			if len(g.runs) != 2 {
				t.Fatalf("write fails: %d runs written", len(g.runs))
			}
			g.Fail(failure)
		case "merge":
			if err := g.Close(); err == nil || sink.n == 0 {
				t.Fatalf("merge fails: Close returned %v after %d tuples out", err, sink.n)
			}
		}
		if got := tuple.LeasedFrames(); got != leased {
			t.Errorf("%s fails: %d frames leased after it, %d before Open", fail, got, leased)
		}
		if used := g.budget.Used(); used != 0 {
			t.Errorf("%s fails: %d bytes still on the budget", fail, used)
		}
		left, err := os.ReadDir(scratch)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range left {
			t.Errorf("%s fails: %s left behind", fail, e.Name())
		}
	}
}
