package operators

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

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

// referenceFold folds every group in arrival order through First and
// Add, on copies, and returns the groups in key order. The combiners the
// group-bys are tested with are associative, so that the fold of a
// group's partial folds (what a spill and the merge make of it) is the
// fold of its tuples in arrival order.
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

// tableRun is what driveTable saw of one run of the word table.
type tableRun struct {
	out     []tuple.Tuple
	spills  int
	peak    int64 // of the operator's budget
	longest int   // run of taken slots in the table when the input ended
}

func driveTable(t *testing.T, opMem int64, c Combiner, in []*tuple.Frame) tableRun {
	t.Helper()
	g := NewGroupByRuntime(testContext(t, opMem), HashSortGroupBy, c).(*spillingGroupBy)
	if !g.table {
		t.Fatal("not a word table")
	}
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
		if es[i%len(es)].key == 0 {
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
	// The group of key 0 is held beside the slots.
	groups := taken
	if g.sorter.hasZero {
		groups++
	}
	if groups != g.live || 4*taken > 3*len(es) {
		t.Fatalf("table of %d slots: %d taken (and the group of key 0: %v), live says %d", len(es), taken, g.sorter.hasZero, g.live)
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

// TestCombineTableMatchesReference: whatever the stride of the vids, and
// however often the budget makes the table spill, the word table emits
// what folding every group in arrival order gives, in key order, for
// 8-byte and 1-byte payloads; it holds at most 3/4 of its slots, live
// counts its groups, no probe passes a long run of taken slots, and the
// budget holds nothing after Close.
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
		{"stride 1", vids(func(i int) uint64 { return uint64(i) })},
		{"stride 2^20", vids(func(i int) uint64 { return uint64(i) << 20 })},
		{"stride 2^40", vids(func(i int) uint64 { return uint64(i) << 40 })},
		{"3 mod 4", vids(func(i int) uint64 { return 4*uint64(i) + 3 })},
		{"5 mod 7", vids(func(i int) uint64 { return 7*uint64(i) + 5 })},
	}
	var folds int
	for _, ks := range keySets {
		for _, width := range []int{8, 1} {
			c := wordSum{&folds, width}
			in := make([]tuple.Tuple, n)
			for i, k := range ks.keys {
				p := make([]byte, width)
				rng.Read(p)
				in[i] = tuple.Tuple{k, p}
			}
			want := referenceFold(in, c)
			frames := packFrames(t, in)
			what := fmt.Sprintf("%s, %d-byte words", ks.name, width)
			fits := driveTable(t, 64<<20, c, frames)
			checkSame(t, what+", in memory", fits.out, want)
			if fits.spills != 0 {
				t.Fatalf("%s: %d spills at 64 MiB", what, fits.spills)
			}
			// A good hash at 3/4 full leaves runs of a few dozen slots.
			if fits.longest > 200 {
				t.Fatalf("%s: %d groups, and a probe may have to pass %d slots", what, len(want), fits.longest)
			}
			for _, b := range []struct {
				opMem     int64
				minSpills int
			}{
				{fits.peak * 3 / 4, 1},
				{40 << 10, 4},                   // a small table
				{tuple.DefaultFrameSize / 2, 1}, // less than a frame
			} {
				got := driveTable(t, b.opMem, c, frames)
				checkSame(t, fmt.Sprintf("%s, at %d bytes", what, b.opMem), got.out, want)
				if got.spills < b.minSpills {
					t.Fatalf("%s, at %d bytes: %d spills, want %d or more", what, b.opMem, got.spills, b.minSpills)
				}
			}
			putFrames(frames)
		}
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
	frames := sumFrames(t, 5, 20000, 5000)
	defer putFrames(frames)
	var folds int
	for _, fail := range []string{"downstream", "write", "merge"} {
		tc := testContext(t, 32<<10)
		scratch := tc.Node.JobDir(tc.RunDir)
		leased := tuple.LeasedFrames()
		g := NewGroupByRuntime(tc, HashSortGroupBy, wordSum{&folds, 8}).(*spillingGroupBy)
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

// sumFrames packs n (8-byte vid, 8-byte count) tuples over the given
// number of distinct vids, in random order.
func sumFrames(tb testing.TB, seed int64, n, vids int) []*tuple.Frame {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = tuple.Tuple{tuple.EncodeUint64(uint64(rng.Intn(vids))), tuple.EncodeUint64(uint64(rng.Intn(1000)))}
	}
	return packFrames(tb, ts)
}

// TestHashGroupByCarriesTable runs one task's hash group-by for three
// rounds over one TaskContext, as a Plan runs an operator instance from
// superstep to superstep: many groups, then few, then many. Every round
// must emit what the sort policy emits and leave nothing on its budget,
// and the third must not grow its table again. At the 64 KiB carve the
// node has no room left for the table the first round hands on, and the
// second, which must drop it and start small, must still group exactly.
func TestHashGroupByCarriesTable(t *testing.T) {
	rounds := [][]*tuple.Frame{
		sumFrames(t, 1, 60000, 20000), // 20000 groups: a table of 32768 slots
		sumFrames(t, 2, 300, 100),
		sumFrames(t, 3, 60000, 20000),
	}
	defer func() {
		for _, in := range rounds {
			putFrames(in)
		}
	}()
	var folds int
	var want [3][]tuple.Tuple
	for i, in := range rounds {
		ref := NewGroupByRuntime(testContext(t, 64<<20), SortGroupBy, wordSum{&folds, 8})
		sink := &collectWriter{}
		ref.SetOutputs([]hyracks.FrameWriter{sink})
		if err := ref.Open(); err != nil {
			t.Fatal(err)
		}
		for _, f := range in {
			if err := ref.NextFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.Close(); err != nil {
			t.Fatal(err)
		}
		want[i] = sink.out
	}

	// round runs the group-by once over in; opened, if given, sees it
	// right after Open.
	round := func(tc *hyracks.TaskContext, in []*tuple.Frame, sink *collectWriter, opened func(*spillingGroupBy)) *spillingGroupBy {
		t.Helper()
		g := NewGroupByRuntime(tc, HashSortGroupBy, wordSum{&folds, 8}).(*spillingGroupBy)
		g.SetOutputs([]hyracks.FrameWriter{sink})
		if err := g.Open(); err != nil {
			t.Fatal(err)
		}
		if opened != nil {
			opened(g)
		}
		for _, f := range in {
			if err := g.NextFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		if used := g.budget.Used(); used != 0 {
			t.Fatalf("%d bytes still on the budget after the round", used)
		}
		return g
	}

	// handedOn is the slots of the table the last round left for the next.
	handedOn := func(tc *hyracks.TaskContext) int {
		c, _ := tc.Carry.(*carriedTable)
		if c == nil {
			return 0
		}
		return cap(c.entries)
	}

	t.Run("carve=64MiB", func(t *testing.T) {
		tc := testContext(t, 64<<20)
		tables := []int{32768, 32768, 32768} // the sparse round keeps the dense one's table
		for i, in := range rounds {
			sink := &collectWriter{}
			round(tc, in, sink, nil)
			checkSame(t, fmt.Sprintf("round %d", i+1), sink.out, want[i])
			if got := handedOn(tc); got != tables[i] {
				t.Fatalf("round %d hands on a table of %d slots, want %d", i+1, got, tables[i])
			}
		}
		// Two sparse rounds in a row: the second drops the table.
		round(tc, rounds[1], &collectWriter{discard: true}, nil)
		round(tc, rounds[1], &collectWriter{discard: true}, nil)
		if got := handedOn(tc); got != 0 {
			t.Fatalf("the second sparse round hands on a table of %d slots", got)
		}
		if raceEnabled {
			return // the race detector's frame pool drops frames
		}
		round(tc, rounds[0], &collectWriter{discard: true}, nil)
		sink := &collectWriter{discard: true}
		// After a dense round: a sparse round and a dense one. They take
		// 26 allocations, the runtimes and their budgets among them;
		// starting their tables at 16 slots again would take 4 + 12 more,
		// the first table and each doubling (42 in all).
		allocs := testing.AllocsPerRun(3, func() {
			round(tc, rounds[1], sink, nil)
			round(tc, rounds[2], sink, nil)
		})
		if allocs >= 34 {
			t.Fatalf("a sparse round and a dense one after a dense one allocate %.0f times, want under 34", allocs)
		}
		t.Logf("a sparse round and a dense one: %.0f allocations", allocs)
	})

	t.Run("carve=64KiB", func(t *testing.T) {
		node, err := hyracks.NewNodeController("n", t.TempDir(), hyracks.NodeConfig{PageSize: 1024, RAMBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		tc := &hyracks.TaskContext{
			Ctx: context.Background(), Node: node, JobName: "test", OperatorID: "gb", RunDir: "job",
			NumPartitions: 1, OperatorMem: 64 << 10,
		}
		sink := &collectWriter{}
		round(tc, rounds[0], sink, nil)
		checkSame(t, "round 1", sink.out, want[0])
		carried := handedOn(tc)
		// Everything of the node's RAM but 24 KiB is taken: less than the
		// table handed on.
		hold := node.RAM.Remaining() - 24<<10
		if int64(carried)*sortEntryBytes <= 24<<10 || !node.RAM.TryAllocate(hold) {
			t.Fatalf("cannot hold back a table of %d slots", carried)
		}
		defer node.RAM.Release(hold)
		for i, in := range rounds[1:] {
			sink := &collectWriter{}
			round(tc, in, sink, func(g *spillingGroupBy) {
				if n := cap(g.sorter.entries); i == 0 && n != 0 {
					t.Fatalf("round 2 opened with a table of %d slots the budget cannot hold", n)
				}
			})
			checkSame(t, fmt.Sprintf("round %d", i+2), sink.out, want[i+1])
		}
	})
}
