package operators

import (
	"errors"
	"testing"

	"pregelix/internal/storage"
	"pregelix/internal/tuple"
)

// failingIndex is a vertex index whose scan returns good of its vids and
// then stops on an I/O error.
type failingIndex struct {
	storage.Index
	vids []uint64
	good int
}

var errPageRead = errors.New("page read failed")

func (f *failingIndex) ScanFrom([]byte) (storage.IndexCursor, error) {
	return &failingCursor{f: f}, nil
}

type failingCursor struct {
	f       *failingIndex
	i       int
	err     error
	updates int
}

func (c *failingCursor) Next() (key, value []byte, ok bool) {
	if c.i == c.f.good {
		c.err = errPageRead
	}
	if c.err != nil || c.i >= len(c.f.vids) {
		return nil, nil, false
	}
	c.i++
	return tuple.EncodeUint64(c.f.vids[c.i-1]), []byte("vertex"), true
}

func (c *failingCursor) NextView() (key, value []byte, ok bool) { return c.Next() }
func (c *failingCursor) Update([]byte) bool                     { c.updates++; return true }
func (c *failingCursor) Err() error                             { return c.err }
func (c *failingCursor) Close()                                 {}

// TestFullOuterJoinStopsOnScanError: a vertex scan that stops on an I/O
// error is not the end of the vertices. The join must return the error
// before it emits another row: a message to a vertex the failed scan did
// not reach is not a message to a missing vertex (the engine would
// create the vertex, run Compute on it and send its messages).
func TestFullOuterJoinStopsOnScanError(t *testing.T) {
	idx := &failingIndex{vids: []uint64{1, 2, 3, 4, 5}, good: 2}
	var rows []joinRow
	err := FullOuterIndexJoin(msgsFor(1, 2, 3, 4, 5), idx, func(vid, msg, vertex []byte) error {
		rows = append(rows, joinRow{tuple.DecodeUint64(vid), msg != nil, vertex != nil})
		return nil
	})
	if !errors.Is(err, errPageRead) {
		t.Fatalf("err = %v, want the scan's error", err)
	}
	want := []joinRow{{1, true, true}, {2, true, true}}
	if len(rows) != len(want) {
		t.Fatalf("%d rows emitted, want the %d the scan reached: %+v", len(rows), len(want), rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
}

// TestFullOuterMergeUpdatesUnderCursor: during an inner or right-outer
// emit the cursor stands on the row's vertex, so the emitter can write it
// back there; during a left-outer emit it has read ahead and must be
// left alone. The real cursor shows which record an Update lands on.
func TestFullOuterMergeUpdatesUnderCursor(t *testing.T) {
	idx := buildVertexIndex(t, []uint64{1, 2, 4, 6})
	defer idx.Close()
	cur, err := idx.ScanFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	err = FullOuterMerge(msgsFor(2, 3, 7), cur, func(vid, msg, vertex []byte) error {
		if vertex == nil {
			return nil // 3 and 7: no record of theirs under the cursor
		}
		if !cur.Update([]byte("v-" + string(rune('0'+tuple.DecodeUint64(vid))))) {
			t.Errorf("update of vertex %d declined", tuple.DecodeUint64(vid))
		}
		return nil
	})
	cur.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, vid := range []uint64{1, 2, 4, 6} {
		got, err := idx.Search(tuple.EncodeUint64(vid))
		if want := "v-" + string(rune('0'+vid)); err != nil || string(got) != want {
			t.Fatalf("vertex %d = %q, %v, want %q", vid, got, err, want)
		}
	}
}
