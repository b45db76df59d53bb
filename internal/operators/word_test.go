package operators

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// wordSum sums payloads of width bytes, read as little-endian integers,
// modulo 2^(8*width): through Add, as a PayloadFolder in place, and as a
// WordFolder, so that a hash group-by over it is a word table. folds
// counts the folds FoldPayload and the word fold took.
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

func (c wordSum) FoldPayload(acc, in []byte) bool {
	c.put(acc, c.word(acc)+c.word(in))
	*c.folds++
	return true
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
						if !g.sorter.words {
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
// word table at a fuzzed budget and checks that it emits what folding
// every group in arrival order gives. Each tuple takes 4 bytes of data:
// a 16-bit key, spread over the 8 bytes so that 0 stays 0 and 0xffff is
// the largest vid, and a 16-bit payload.
func FuzzWordTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 255, 255, 1, 0, 0, 0, 7, 7, 255, 255, 0, 0}, uint16(300), uint8(0))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 100), uint16(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, budget uint16, mode uint8) {
		width := []int{8, 1}[mode&1]
		kind := []GroupByKind{HashSortGroupBy, UnorderedHashGroupBy}[mode>>1&1]
		fields := mode&4 != 0
		var folds int
		c := wordSum{&folds, width}
		var in []tuple.Tuple
		for ; len(data) >= 4; data = data[4:] {
			k := uint64(binary.LittleEndian.Uint16(data)) * 0x0001000100010001
			p := make([]byte, 8)
			binary.LittleEndian.PutUint64(p, uint64(binary.LittleEndian.Uint16(data[2:]))*0x0000010000000101)
			in = append(in, tuple.Tuple{tuple.EncodeUint64(k), p[:width]})
		}
		frames := packFrames(t, in)
		defer putFrames(frames)
		got, _ := driveFolder(t, kind, int64(budget), c, in, frames, fields)
		if kind == UnorderedHashGroupBy {
			slices.SortFunc(got, func(a, b tuple.Tuple) int { return bytes.Compare(a[0], b[0]) })
		}
		checkSame(t, "fuzzed stream", got, referenceFold(in, c))
	})
}
