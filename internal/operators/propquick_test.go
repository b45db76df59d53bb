package operators

import (
	"bytes"
	"io"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pregelix/internal/tuple"
)

// TestMergeSourcesEqualsSortQuick: merging K sorted fragments of a random
// multiset (with the summing combiner) must equal grouping the whole
// multiset directly.
func TestMergeSourcesEqualsSortQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200 + rng.Intn(800)
		all := make([]tuple.Tuple, n)
		for i := range all {
			all[i] = tuple.Tuple{
				tuple.EncodeUint64(uint64(rng.Intn(100))),
				tuple.EncodeFloat64(float64(rng.Intn(5))),
			}
		}
		// Expected: direct grouping.
		want := map[uint64]float64{}
		for _, tp := range all {
			want[tuple.DecodeUint64(tp[0])] += tuple.DecodeFloat64(tp[1])
		}
		// Split into k sorted fragments.
		k := 1 + rng.Intn(5)
		frags := make([][]tuple.Tuple, k)
		for i, tp := range all {
			f := i % k
			frags[f] = append(frags[f], tp)
		}
		srcs := make([]TupleSource, k)
		for i := range frags {
			sort.SliceStable(frags[i], func(a, b int) bool {
				return bytes.Compare(frags[i][a][0], frags[i][b][0]) < 0
			})
			srcs[i] = NewSliceSource(frags[i])
		}
		got := map[uint64]float64{}
		var prev []byte
		err := MergeSources(srcs, sumCombiner{}, func(tp tuple.Tuple) error {
			if prev != nil && bytes.Compare(prev, tp[0]) >= 0 {
				t.Fatal("merge output not strictly increasing")
			}
			prev = append(prev[:0], tp[0]...)
			got[tuple.DecodeUint64(tp[0])] = tuple.DecodeFloat64(tp[1])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d groups want %d", seed, len(got), len(want))
		}
		for key, w := range want {
			if got[key] != w {
				t.Fatalf("seed %d: key %d: %v want %v", seed, key, got[key], w)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestChooseMergeQuick: the merged stream must contain exactly the union
// of keys, preferring stream a's tuple on collisions, in sorted order.
func TestChooseMergeQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(tag byte) ([]tuple.Tuple, map[uint64]bool) {
			n := rng.Intn(60)
			keys := map[uint64]bool{}
			for i := 0; i < n; i++ {
				keys[uint64(rng.Intn(80))] = true
			}
			sorted := make([]uint64, 0, len(keys))
			for k := range keys {
				sorted = append(sorted, k)
			}
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			ts := make([]tuple.Tuple, len(sorted))
			for i, k := range sorted {
				ts[i] = tuple.Tuple{tuple.EncodeUint64(k), {tag}}
			}
			return ts, keys
		}
		at, akeys := mk('a')
		bt, bkeys := mk('b')
		got := drainSource(t, NewChooseMerge(NewSliceSource(at), NewSliceSource(bt)))
		union := map[uint64]bool{}
		for k := range akeys {
			union[k] = true
		}
		for k := range bkeys {
			union[k] = true
		}
		if len(got) != len(union) {
			t.Fatalf("seed %d: %d tuples, union %d", seed, len(got), len(union))
		}
		for i, tp := range got {
			k := tuple.DecodeUint64(tp[0])
			if !union[k] {
				t.Fatalf("seed %d: phantom key %d", seed, k)
			}
			if akeys[k] && tp[1][0] != 'a' {
				t.Fatalf("seed %d: key %d should come from a", seed, k)
			}
			if !akeys[k] && tp[1][0] != 'b' {
				t.Fatalf("seed %d: key %d should come from b", seed, k)
			}
			if i > 0 && bytes.Compare(got[i-1][0], tp[0]) >= 0 {
				t.Fatalf("seed %d: output unsorted", seed)
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// errSource fails after a few tuples; joins must propagate the error.
type errSource struct{ n int }

func (s *errSource) Next() (tuple.Tuple, error) {
	if s.n <= 0 {
		return nil, io.ErrUnexpectedEOF
	}
	s.n--
	return tuple.Tuple{tuple.EncodeUint64(uint64(s.n)), nil}, nil
}

func TestJoinsPropagateSourceErrors(t *testing.T) {
	idx := buildVertexIndex(t, []uint64{1, 2, 3})
	defer idx.Close()
	if err := FullOuterIndexJoin(&errSource{n: 1}, idx, func(_, _, _ []byte) error { return nil }); err == nil {
		t.Fatal("FOJ swallowed source error")
	}
	if err := ProbeJoinLeftOuter(&errSource{n: 1}, idx, func(_, _, _ []byte) error { return nil }); err == nil {
		t.Fatal("LOJ swallowed source error")
	}
}
