package operators

import (
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"pregelix/internal/memory"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
)

func buildVertexIndex(t *testing.T, vids []uint64) storage.Index {
	t.Helper()
	bc := storage.NewBufferCache(1024, memory.NewBudget("join", 0))
	bt, err := storage.CreateBTree(bc, filepath.Join(t.TempDir(), "v.btree"))
	if err != nil {
		t.Fatal(err)
	}
	loader, _ := bt.NewBulkLoader(1.0)
	for _, v := range vids {
		if err := loader.Add(tuple.EncodeUint64(v), []byte(fmt.Sprintf("vertex-%d", v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := loader.Finish(); err != nil {
		t.Fatal(err)
	}
	return storage.AsIndex(bt)
}

func msgsFor(vids ...uint64) TupleSource {
	var ts []tuple.Tuple
	for _, v := range vids {
		ts = append(ts, tuple.Tuple{tuple.EncodeUint64(v), []byte(fmt.Sprintf("msg-%d", v))})
	}
	return NewSliceSource(ts)
}

type joinRow struct {
	vid       uint64
	hasMsg    bool
	hasVertex bool
}

func collectJoin(t *testing.T, join func(emit JoinEmitter) error) []joinRow {
	t.Helper()
	var rows []joinRow
	err := join(func(vid, msg, vertex []byte) error {
		rows = append(rows, joinRow{tuple.DecodeUint64(vid), msg != nil, vertex != nil})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFullOuterIndexJoinAllCases(t *testing.T) {
	idx := buildVertexIndex(t, []uint64{1, 2, 4, 6})
	defer idx.Close()
	// messages for 2 (inner), 3 (no vertex), 6 (inner); 1 and 4 have no
	// messages (right-outer).
	rows := collectJoin(t, func(emit JoinEmitter) error {
		return FullOuterIndexJoin(msgsFor(2, 3, 6), idx, emit)
	})
	want := []joinRow{
		{1, false, true},
		{2, true, true},
		{3, true, false},
		{4, false, true},
		{6, true, true},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows: %+v", rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d: got %+v want %+v", i, rows[i], want[i])
		}
	}
}

func TestFullOuterJoinEmptyMsgs(t *testing.T) {
	idx := buildVertexIndex(t, []uint64{10, 20})
	defer idx.Close()
	rows := collectJoin(t, func(emit JoinEmitter) error {
		return FullOuterIndexJoin(NewSliceSource(nil), idx, emit)
	})
	if len(rows) != 2 || rows[0].hasMsg || !rows[0].hasVertex {
		t.Fatalf("rows: %+v", rows)
	}
}

func TestFullOuterJoinEmptyIndex(t *testing.T) {
	idx := buildVertexIndex(t, nil)
	defer idx.Close()
	rows := collectJoin(t, func(emit JoinEmitter) error {
		return FullOuterIndexJoin(msgsFor(5, 7), idx, emit)
	})
	if len(rows) != 2 || !rows[0].hasMsg || rows[0].hasVertex {
		t.Fatalf("rows: %+v", rows)
	}
}

func TestProbeJoinLeftOuter(t *testing.T) {
	idx := buildVertexIndex(t, []uint64{1, 3, 5})
	defer idx.Close()
	rows := collectJoin(t, func(emit JoinEmitter) error {
		return ProbeJoinLeftOuter(msgsFor(1, 2, 5), idx, emit)
	})
	want := []joinRow{
		{1, true, true},
		{2, true, false},
		{5, true, true},
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d: got %+v want %+v", i, rows[i], want[i])
		}
	}
	// The left outer join must NOT visit messageless vertex 3.
	if len(rows) != 3 {
		t.Fatalf("LOJ visited messageless vertices: %+v", rows)
	}
}

// drainSource reads src to its end.
func drainSource(t *testing.T, src TupleSource) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	for {
		tp, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tp)
	}
}

func TestChooseMergePrefersFirstSource(t *testing.T) {
	msg := NewSliceSource([]tuple.Tuple{
		{tuple.EncodeUint64(2), []byte("m2")},
		{tuple.EncodeUint64(4), []byte("m4")},
	})
	vid := NewSliceSource([]tuple.Tuple{
		{tuple.EncodeUint64(1), nil},
		{tuple.EncodeUint64(2), nil},
		{tuple.EncodeUint64(5), nil},
	})
	var got []string
	for _, tp := range drainSource(t, NewChooseMerge(msg, vid)) {
		got = append(got, fmt.Sprintf("%d:%s", tuple.DecodeUint64(tp[0]), tp[1]))
	}
	want := []string{"1:", "2:m2", "4:m4", "5:"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("at %d: got %q want %q", i, got[i], want[i])
		}
	}
}

// TestFOJAndLOJAgreeOnLiveSet: for the same message stream plus a Vid
// stream covering all live vertices, the LOJ plan must call compute on
// exactly the same (vid, hasMsg) set as the FOJ plan restricted to
// live-or-addressed vertices. This is the plan-equivalence invariant of
// Figure 8.
func TestFOJAndLOJAgreeOnLiveSet(t *testing.T) {
	vertices := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	live := map[uint64]bool{2: true, 5: true, 7: true}
	idx := buildVertexIndex(t, vertices)
	defer idx.Close()
	msgVids := []uint64{3, 5}

	// FOJ: emits every vertex; the compute filter keeps live || msg.
	fojSet := map[string]bool{}
	err := FullOuterIndexJoin(msgsFor(msgVids...), idx, func(vid, msg, vertex []byte) error {
		v := tuple.DecodeUint64(vid)
		if live[v] || msg != nil {
			fojSet[fmt.Sprintf("%d/%v", v, msg != nil)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// LOJ: merge msgs with Vid null-msgs, then probe.
	var vidTuples []tuple.Tuple
	for _, v := range vertices {
		if live[v] {
			vidTuples = append(vidTuples, tuple.Tuple{tuple.EncodeUint64(v), nil})
		}
	}
	merged := NewChooseMerge(msgsFor(msgVids...), NewSliceSource(vidTuples))
	lojSet := map[string]bool{}
	err = ProbeJoinLeftOuter(merged, idx, func(vid, msg, vertex []byte) error {
		v := tuple.DecodeUint64(vid)
		lojSet[fmt.Sprintf("%d/%v", v, msg != nil)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(fojSet) != len(lojSet) {
		t.Fatalf("FOJ %v vs LOJ %v", fojSet, lojSet)
	}
	for k := range fojSet {
		if !lojSet[k] {
			t.Fatalf("LOJ missing %s", k)
		}
	}
}

// viewSource returns its tuples as views of one buffer it overwrites at
// every Next, as RunSource and the Vid scan do.
type viewSource struct {
	vids []uint64
	buf  [8]byte
	hdr  tuple.Tuple
	msg  bool
}

func (s *viewSource) Next() (tuple.Tuple, error) {
	if len(s.vids) == 0 {
		return nil, io.EOF
	}
	copy(s.buf[:], tuple.EncodeUint64(s.vids[0]))
	s.vids = s.vids[1:]
	var payload []byte
	if s.msg {
		payload = []byte("msg")
	}
	s.hdr = append(s.hdr[:0], s.buf[:], payload)
	return s.hdr, nil
}

// TestChooseMergeOverViews: the merge reads a tuple only until its
// following Next, so sources that reuse their memory merge correctly.
func TestChooseMergeOverViews(t *testing.T) {
	m := NewChooseMerge(&viewSource{vids: []uint64{2, 4, 5, 9}, msg: true}, &viewSource{vids: []uint64{1, 2, 5, 6, 10}})
	var got []string
	for {
		tp, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%d:%s", tuple.DecodeUint64(tp[0]), tp[1]))
	}
	want := fmt.Sprint([]string{"1:", "2:msg", "4:msg", "5:msg", "6:", "9:msg", "10:"})
	if fmt.Sprint(got) != want {
		t.Fatalf("merged %v, want %v", got, want)
	}
}

// TestProbeMergeUpdatesUnderCursor: during an inner emit the probe's
// cursor stands on the row's vertex, so the emitter can write it back
// there; a vid the index lacks comes out as a left-outer row, and the
// records no probe reached keep their values.
func TestProbeMergeUpdatesUnderCursor(t *testing.T) {
	idx := buildVertexIndex(t, []uint64{1, 2, 4, 6})
	defer idx.Close()
	cur, err := idx.ScanFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows []joinRow
	err = ProbeMerge(msgsFor(2, 3, 6, 7), cur, func(vid, msg, vertex []byte) error {
		v := tuple.DecodeUint64(vid)
		rows = append(rows, joinRow{v, msg != nil, vertex != nil})
		if vertex == nil {
			if cur.Update([]byte("v")) {
				t.Errorf("update after probing the absent %d went through", v)
			}
			return nil
		}
		if want := fmt.Sprintf("vertex-%d", v); string(vertex) != want {
			t.Errorf("vertex %d = %q, want %q", v, vertex, want)
		}
		if !cur.Update([]byte(fmt.Sprintf("v-%d", v))) {
			t.Errorf("update of vertex %d declined", v)
		}
		return nil
	})
	cur.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint([]joinRow{{2, true, true}, {3, true, false}, {6, true, true}, {7, true, false}}); fmt.Sprint(rows) != want {
		t.Fatalf("rows %v, want %v", rows, want)
	}
	for vid, want := range map[uint64]string{1: "vertex-1", 2: "v-2", 4: "vertex-4", 6: "v-6"} {
		if got, err := idx.Search(tuple.EncodeUint64(vid)); err != nil || string(got) != want {
			t.Fatalf("vertex %d = %q, %v, want %q", vid, got, err, want)
		}
	}
}
