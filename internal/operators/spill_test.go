package operators

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// raceEnabled is set under the race detector (race_test.go), whose frame
// pool drops frames at random.
var raceEnabled bool

// fdWatcher is a sink that counts the process's open descriptors at
// every frame it is given and keeps the most it saw.
type fdWatcher struct {
	collectWriter
	most int
}

func (w *fdWatcher) NextFrame(f *tuple.Frame) error {
	if fds, err := os.ReadDir("/proc/self/fd"); err == nil {
		w.most = max(w.most, len(fds))
	}
	return w.collectWriter.NextFrame(f)
}

// TestSpillUsesOneFile: a sort group-by, a hash group-by and an external
// sort that each spill a hundred runs and more at 64 KiB keep all of them
// in one file, which Close removes, read them back through its one
// descriptor, and merge them into what the reference fold (or a stable
// sort) gives.
func TestSpillUsesOneFile(t *testing.T) {
	const n, keys = 125000, 30000
	rng := rand.New(rand.NewSource(3))
	in := make([]tuple.Tuple, n)
	sortKeys := make([][]byte, n)
	for i := range in {
		sortKeys[i] = tuple.EncodeUint64(uint64(rng.Intn(keys)))
		in[i] = tuple.Tuple{sortKeys[i], tuple.EncodeUint64(uint64(i))}
	}
	var sorted []tuple.Tuple
	for _, i := range stableOrder(sortKeys) {
		sorted = append(sorted, in[i])
	}
	grouped := referenceFold(in, concatCombiner{})
	frames := packFrames(t, in)
	defer putFrames(frames)

	for _, c := range []struct {
		name string
		kind GroupByKind
		comb Combiner
		want []tuple.Tuple
	}{
		{"sort group-by", SortGroupBy, concatCombiner{}, grouped},
		{"hash group-by", HashSortGroupBy, concatCombiner{}, grouped},
		{"external sort", SortGroupBy, nil, sorted},
	} {
		tc := testContext(t, 64<<10)
		scratch := tc.Node.JobDir(tc.RunDir)
		sink := &fdWatcher{}
		fds, fdErr := os.ReadDir("/proc/self/fd") // none to count off Linux
		g := NewGroupByRuntime(tc, c.kind, c.comb).(*spillingGroupBy)
		g.SetOutputs([]hyracks.FrameWriter{sink})
		if err := g.Open(); err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if err := g.NextFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		runs := len(g.runs)
		if runs < 100 {
			t.Fatalf("%s: %d runs at 64 KiB, want 100 or more", c.name, runs)
		}
		if left, err := os.ReadDir(scratch); err != nil || len(left) != 1 {
			t.Fatalf("%s: %d files for %d runs (%v), want one", c.name, len(left), runs, err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		checkSame(t, fmt.Sprintf("%s of %d runs", c.name, runs), sink.out, c.want)
		if left, err := os.ReadDir(scratch); err != nil || len(left) != 0 {
			t.Fatalf("%s: %d files left after Close (%v)", c.name, len(left), err)
		}
		if fdErr == nil && sink.most > len(fds)+1 {
			t.Fatalf("%s: %d descriptors open during the merge, %d before Open", c.name, sink.most, len(fds))
		}
	}
}

// TestSpillAllocations: an external sort that spills a run a frame
// allocates a few hundred bytes a run — a share of the one file's write
// buffer, a reader and a merge cursor — and no file or read buffer of
// the run's own.
func TestSpillAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's frame pool drops frames: every run would allocate one")
	}
	frames := messageFrames(t, benchTuples, 30000)
	defer putFrames(frames)
	tc := testContext(t, 64<<10)
	sink := &collectWriter{discard: true}
	sortOnce := func() int {
		g := NewExternalSortRuntime(tc).(*spillingGroupBy)
		g.SetOutputs([]hyracks.FrameWriter{sink})
		if err := g.Open(); err != nil {
			t.Fatal(err)
		}
		for _, f := range frames {
			if err := g.NextFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		runs := len(g.runs)
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		return runs
	}
	sortOnce() // fills the frame pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runs := 0
	for i := 0; i < 3; i++ {
		runs += sortOnce()
	}
	runtime.ReadMemStats(&after)
	if runs < 300 {
		t.Fatalf("%d runs in 3 sorts", runs)
	}
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	if perRun >= 4<<10 {
		t.Fatalf("%.0f bytes allocated a run (%d runs), want under 4 KiB", perRun, runs)
	}
	t.Logf("%.0f bytes allocated a run (%d runs)", perRun, runs)
}
