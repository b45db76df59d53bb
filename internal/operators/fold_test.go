package operators

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"testing"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// sumFolder sums the big-endian numbers in the first 8 bytes of the
// payloads, and keeps the rest of the accumulator's: through Add, and as
// a PayloadFolder in place. folds counts the folds FoldPayload took.
type sumFolder struct{ folds *int }

func (sumFolder) First(t tuple.Tuple) tuple.Tuple { return t }

func (sumFolder) Add(acc, t tuple.Tuple) tuple.Tuple {
	binary.BigEndian.PutUint64(acc[1], binary.BigEndian.Uint64(acc[1])+binary.BigEndian.Uint64(t[1]))
	return acc
}

func (c sumFolder) FoldPayload(acc, in []byte) bool {
	binary.BigEndian.PutUint64(acc, binary.BigEndian.Uint64(acc)+binary.BigEndian.Uint64(in))
	*c.folds++
	return true
}

// growingSum sums payloads that are a number's big-endian bytes with no
// leading zero byte, so that a group's payload widens as its sum grows: on
// the fold that carries it past 255, past 65535, and so on. FoldPayload
// refuses that fold, and Add gives the group a new, wider payload.
type growingSum struct{ folds, refused *int }

// minimalBytes appends v's big-endian bytes, without leading zeros, to dst.
func minimalBytes(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	i := 0
	for i < 7 && b[i] == 0 {
		i++
	}
	return append(dst, b[i:]...)
}

func fromMinimal(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

func (growingSum) First(t tuple.Tuple) tuple.Tuple { return t }

func (growingSum) Add(acc, t tuple.Tuple) tuple.Tuple {
	acc[1] = minimalBytes(nil, fromMinimal(acc[1])+fromMinimal(t[1]))
	return acc
}

func (c growingSum) FoldPayload(acc, in []byte) bool {
	var b [8]byte
	sum := minimalBytes(b[:0], fromMinimal(acc)+fromMinimal(in))
	if len(sum) != len(acc) {
		*c.refused++
		return false
	}
	copy(acc, sum)
	*c.folds++
	return true
}

// driveFolder runs a group-by of the given kind over in, by frames or, if
// fields is set, tuple by tuple through AddFields from one buffer that is
// overwritten after each call. It checks that the runtime gives back
// everything it took: no frame leased, nothing on its budget, no file left.
func driveFolder(t *testing.T, kind GroupByKind, opMem int64, c Combiner, in []tuple.Tuple, frames []*tuple.Frame, fields bool) (out []tuple.Tuple, spills int) {
	t.Helper()
	tc := testContext(t, opMem)
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

// checkProbes checks that the probe for every group of g's table reaches
// the group's slot before it meets a free one: else a later tuple of the
// group would start it again.
func checkProbes(t *testing.T, g *spillingGroupBy) {
	t.Helper()
	es := g.sorter.entries
	for i, e := range es {
		if !g.sorter.taken(e) {
			continue
		}
		var key []byte
		if g.sorter.wide {
			key = g.keyOf(e)
		}
		j := g.sorter.slotOf(e.key, key)
		for j != i && g.sorter.taken(es[j]) {
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

// TestPayloadFoldMatchesReference: a combiner that folds payloads as
// bytes gives what folding every group in arrival order through Add
// gives, under both table kinds and the sort policy (whose merge folds),
// in memory and at budgets that make the table spill and its runs merge,
// by frames and by fields, for 8-byte keys (whose entry decides a probe)
// and for keys of every length. A fold that widens its group's payload
// is refused in the middle of the group, and the group goes on in a new
// record. When the input ends every group's probe still finds it, and no
// run the table spilled holds a key twice: a new group takes the slot its
// probe ended on only while the table has not grown, spilled or turned
// wide since.
func TestPayloadFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const n = 12000
	vids := func(distinct int) [][]byte {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = tuple.EncodeUint64(uint64(rng.Intn(distinct)))
		}
		return keys
	}
	keySets := []struct {
		name string
		keys [][]byte
	}{
		{"vids", vids(n / 3)},
		// Each key 12 times: a group's tuples meet in a buffer.
		{"few vids", vids(n / 12)},
		{"tricky", trickyKeys(rng, n)},
		// One key in 50 four bytes longer: the table turns wide with
		// groups in it, and its records stop being all of one shape.
		{"vids, some wide", func() [][]byte {
			keys := vids(n / 3)
			for i := range keys {
				if rng.Intn(50) == 0 {
					keys[i] = append(keys[i], 0, 0, 0, 1)
				}
			}
			return keys
		}()},
	}
	var folds, refused int
	combiners := []struct {
		name    string
		c       Combiner
		payload func() []byte
	}{
		{"8-byte sum", sumFolder{&folds}, func() []byte { return tuple.EncodeUint64(uint64(rng.Intn(1000))) }},
		// Records of 148 bytes: a frame fills before the table does, so
		// that a new group's record is what makes the table spill.
		{"sum padded to 128 bytes", sumFolder{&folds}, func() []byte {
			return append(tuple.EncodeUint64(uint64(rng.Intn(1000))), make([]byte, 120)...)
		}},
		{"widening sum", growingSum{&folds, &refused}, func() []byte { return minimalBytes(nil, uint64(1+rng.Intn(200))) }},
		// A word table under the hash kinds: its keys must be 8 bytes.
		{"8-byte word sum", wordSum{&folds, 8}, func() []byte { return binary.LittleEndian.AppendUint64(nil, uint64(rng.Intn(1000))) }},
	}
	kinds := []struct {
		name string
		kind GroupByKind
	}{
		{"hashsort", HashSortGroupBy},
		{"unordered", UnorderedHashGroupBy},
		{"sort", SortGroupBy},
	}
	for _, ks := range keySets {
		for _, cb := range combiners {
			// A word table holds 1536 groups at 40 KiB: of the key sets of
			// vids, only the one of 4000 makes it spill 4 times.
			if _, words := cb.c.(WordFolder); words && ks.name != "vids" {
				continue
			}
			in := make([]tuple.Tuple, n)
			for i, k := range ks.keys {
				in[i] = tuple.Tuple{k, cb.payload()}
			}
			want := referenceFold(in, cb.c)
			frames := packFrames(t, in)
			for _, kd := range kinds {
				for _, b := range []struct {
					opMem     int64
					minSpills int
				}{
					{64 << 20, 0},
					{40 << 10, 4},
					{tuple.DefaultFrameSize / 2, 1},
				} {
					for _, fields := range []bool{false, true} {
						what := fmt.Sprintf("%s, %s, %s, at %d bytes, fields %v", ks.name, cb.name, kd.name, b.opMem, fields)
						folds, refused = 0, 0
						got, spills := driveFolder(t, kd.kind, b.opMem, cb.c, in, frames, fields)
						if kd.kind == UnorderedHashGroupBy {
							slices.SortFunc(got, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
						}
						checkSame(t, what, got, want)
						if spills < b.minSpills {
							t.Fatalf("%s: %d spills, want %d or more", what, spills, b.minSpills)
						}
						if folds == 0 {
							t.Fatalf("%s: no fold went through FoldPayload", what)
						}
						if cb.name == "widening sum" && kd.kind != SortGroupBy && refused == 0 {
							t.Fatalf("%s: no fold was refused", what)
						}
					}
				}
			}
			putFrames(frames)
		}
	}
}

// TestPayloadFoldAllocations guards the hot path of the byte fold: folding
// 50k (8-byte vid, 8-byte sum) tuples into a table in memory, by frames
// and by fields, allocates by the frame and by the doubling of the table,
// not by the tuple or the group.
func TestPayloadFoldAllocations(t *testing.T) {
	const n = 50000
	frames := sumFrames(t, 4, n, n/4)
	defer putFrames(frames)
	var in []tuple.Tuple
	for _, f := range frames {
		for i := 0; i < f.Len(); i++ {
			in = append(in, f.Tuple(i).Materialize())
		}
	}
	feeds := []struct {
		name string
		feed func(g *spillingGroupBy) error
	}{
		{"frames", func(g *spillingGroupBy) error {
			for _, f := range frames {
				if err := g.NextFrame(f); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fields", func(g *spillingGroupBy) error {
			for _, tu := range in {
				if err := g.AddFields(tu); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	var folds int
	tc := testContext(t, 64<<20)
	sink := &collectWriter{discard: true}
	for _, fd := range feeds {
		allocs := testing.AllocsPerRun(5, func() {
			g := NewGroupByRuntime(tc, HashSortGroupBy, sumFolder{&folds}).(*spillingGroupBy)
			g.SetOutputs([]hyracks.FrameWriter{sink})
			if err := g.Open(); err != nil {
				t.Fatal(err)
			}
			if err := fd.feed(g); err != nil {
				t.Fatal(err)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if folds == 0 || sink.n == 0 {
			t.Fatalf("%s: %d folds through FoldPayload, %d tuples out", fd.name, folds, sink.n)
		}
		if perTuple := allocs / n; perTuple >= 0.1 {
			t.Fatalf("%s: %.0f allocations for %d tuples (%.3f per tuple), want under 0.1", fd.name, allocs, n, perTuple)
		}
		t.Logf("%s: %.0f allocations for %d tuples", fd.name, allocs, n)
	}
}
