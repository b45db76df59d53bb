package operators

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// frameSource plays sorted tuples back as refs into frames of many
// tuples each, the way a run reader does: a ref is valid until the
// source moves on to its next frame.
type frameSource struct {
	frames []*tuple.Frame
	f, i   int
}

func (s *frameSource) NextRef() (tuple.TupleRef, error) {
	for s.f < len(s.frames) && s.i >= s.frames[s.f].Len() {
		s.f, s.i = s.f+1, 0
	}
	if s.f == len(s.frames) {
		return tuple.TupleRef{}, io.EOF
	}
	s.i++
	return s.frames[s.f].Tuple(s.i - 1), nil
}

// TestMergeKeepsSourceOrder: at fan-ins from 1 to 300, with empty
// sources, sources that end early, equal keys across sources and keys of
// every length, the merge gives a stable sort of the sources' tuples
// taken in source order — with no combiner, every tuple; with one, every
// group folded in that order — through the boxed MergeSources and over
// refs alike.
func TestMergeKeepsSourceOrder(t *testing.T) {
	for _, k := range []int{1, 2, 255, 256, 257, 300} {
		for _, wide := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(k)))
			srcs := make([][]tuple.Tuple, k)
			var all []tuple.Tuple // in source order
			for s := range srcs {
				n := rng.Intn(40)
				switch s % 7 {
				case 0:
					n = 0 // empty
				case 1:
					n = 1 // ends at once
				}
				keys := make([][]byte, n)
				for i := range keys {
					if wide {
						keys[i] = trickyKeys(rng, 1)[0]
					} else {
						keys[i] = tuple.EncodeUint64(uint64(rng.Intn(3 * k)))
					}
				}
				for _, i := range stableOrder(keys) {
					srcs[s] = append(srcs[s], tuple.Tuple{keys[i], []byte(fmt.Sprintf("%d.%d;", s, i))})
				}
				all = append(all, srcs[s]...)
			}
			allKeys := make([][]byte, len(all))
			for i, tp := range all {
				allKeys[i] = tp[0]
			}
			var sorted []tuple.Tuple
			for _, i := range stableOrder(allKeys) {
				sorted = append(sorted, all[i])
			}
			grouped := referenceFold(sorted, concatCombiner{})
			name := fmt.Sprintf("fan-in %d, wide %v", k, wide)

			for _, comb := range []Combiner{nil, concatCombiner{}} {
				want := sorted
				if comb != nil {
					want = grouped
				}
				boxed := make([]TupleSource, k)
				for s := range srcs {
					boxed[s] = NewSliceSource(srcs[s])
				}
				var got []tuple.Tuple
				keep := func(tp tuple.Tuple) error {
					got = append(got, tp.Clone())
					return nil
				}
				if err := MergeSources(boxed, comb, keep); err != nil {
					t.Fatal(err)
				}
				checkSame(t, name+", MergeSources", got, want)

				refs := make([]refSource, k)
				var frames []*tuple.Frame
				for s := range srcs {
					fs := packFrames(t, srcs[s])
					frames = append(frames, fs...)
					refs[s] = (&frameSource{frames: fs}).NextRef
				}
				got = nil
				err := mergeRuns(refs, &folder{combiner: comb, emit: keep, emitRef: func(r tuple.TupleRef) error {
					got = append(got, r.Materialize())
					return nil
				}})
				putFrames(frames)
				if err != nil {
					t.Fatal(err)
				}
				checkSame(t, name+", over refs", got, want)
			}
		}
	}
}

// sumMsgs folds PageRank-shaped payloads, a one-message list whose last
// 8 bytes are a float64, into the accumulator's own bytes, as the
// engine's message combiner does: it allocates nothing.
type sumMsgs struct{}

func (sumMsgs) First(t tuple.Tuple) tuple.Tuple { return t }

func (sumMsgs) Add(acc, t tuple.Tuple) tuple.Tuple {
	a, b := acc[1][8:], t[1][8:]
	binary.LittleEndian.PutUint64(a, math.Float64bits(tuple.DecodeFloat64(a)+tuple.DecodeFloat64(b)))
	return acc
}

// BenchmarkSpillMerge is one PageRank sender group-by of the pr_spill
// workload: a hash group-by with a summing combiner at the 64 KiB carve,
// 190k messages (an 8-byte vid and a 16-byte one-message list, as
// PageRank sends) over ≈45k destinations, which its
// table barely folds, so that it spills ≈230 runs and merges them on
// Close. It reports the merge's nanoseconds per merged tuple (every
// tuple of every run and of the in-memory remainder) and the runs per
// operation.
func BenchmarkSpillMerge(b *testing.B) {
	const n, vids = 190000, 46000
	rng := rand.New(rand.NewSource(1))
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		msg := make([]byte, 16)
		binary.LittleEndian.PutUint32(msg, 1)
		binary.LittleEndian.PutUint32(msg[4:], 8)
		binary.LittleEndian.PutUint64(msg[8:], math.Float64bits(rng.Float64()))
		ts[i] = tuple.Tuple{tuple.EncodeUint64(uint64(rng.Intn(vids))), msg}
	}
	frames := packFrames(b, ts)
	defer putFrames(frames)
	tc := testContext(b, 64<<10)
	sink := &collectWriter{discard: true}
	var merging time.Duration
	var runs, merged int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGroupByRuntime(tc, HashSortGroupBy, sumMsgs{}).(*spillingGroupBy)
		g.SetOutputs([]hyracks.FrameWriter{sink})
		if err := g.Open(); err != nil {
			b.Fatal(err)
		}
		for _, f := range frames {
			if err := g.NextFrame(f); err != nil {
				b.Fatal(err)
			}
		}
		runs += int64(len(g.runs))
		merged += int64(g.live)
		for _, r := range g.runs {
			merged += r.Count()
		}
		start := time.Now()
		if err := g.Close(); err != nil {
			b.Fatal(err)
		}
		merging += time.Since(start)
	}
	if runs == 0 {
		b.Fatal("the group-by spilled no run")
	}
	b.ReportMetric(float64(merging.Nanoseconds())/float64(merged), "ns/merged")
	b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
}
