package operators

import (
	"bytes"
	"io"

	"pregelix/internal/storage"
	"pregelix/internal/tuple"
)

// JoinEmitter receives one joined row of the Msg ⟕⟖ Vertex join
// (Figure 2). Exactly one of the three Pregel cases holds per call:
//
//   - inner:       msg != nil, vertex != nil
//   - left-outer:  msg != nil, vertex == nil (message to missing vertex)
//   - right-outer: msg == nil, vertex != nil (vertex without messages)
//
// vid is always set. The emitter must not retain msg/vertex slices.
type JoinEmitter func(vid, msg, vertex []byte) error

// FullOuterIndexJoin merges the sorted combined-message stream (tuples of
// (vid, payload)) with a full scan of the vertex index, emitting every
// join case. This is the left plan of Figure 8: a single merge pass that
// reads every vertex, suited to algorithms where most vertices are live
// (e.g. PageRank).
func FullOuterIndexJoin(msgs TupleSource, idx storage.Index, emit JoinEmitter) error {
	cur, err := idx.ScanFrom(nil)
	if err != nil {
		return err
	}
	defer cur.Close()
	return FullOuterMerge(msgs, cur, emit)
}

// FullOuterMerge is the merge loop of FullOuterIndexJoin over a cursor
// the caller opened (and closes). A message tuple need only stay valid
// until the following msgs.Next, and the vertex is read as a view
// (NextView). During an inner or right-outer emit the row's vertex is
// the record the cursor returned last, so the emitter may write it back
// with cur.Update; during a left-outer emit it is not (the cursor has
// read ahead). A scan that stops on an I/O error ends the join with that
// error before any further row is emitted.
func FullOuterMerge(msgs TupleSource, cur storage.IndexCursor, emit JoinEmitter) error {
	mt, merr := msgs.Next()
	vk, vv, vok := cur.NextView()
	for {
		if merr != nil && merr != io.EOF {
			return merr
		}
		if !vok {
			// A failed scan is not the end of the vertices; a finished one
			// ends the join (err is nil) once the messages have ended too.
			if err := cur.Err(); err != nil || merr != nil {
				return err
			}
		}
		c := 1 // messages exhausted
		switch {
		case !vok: // vertices exhausted
			c = -1
		case merr == nil:
			c = bytes.Compare(mt[0], vk)
		}
		var err error
		switch {
		case c == 0: // inner
			err = emit(vk, mt[1], vv)
		case c < 0: // message without vertex
			err = emit(mt[0], mt[1], nil)
		default: // vertex without message
			err = emit(vk, nil, vv)
		}
		if err != nil {
			return err
		}
		if c <= 0 {
			mt, merr = msgs.Next()
		}
		if c >= 0 {
			vk, vv, vok = cur.NextView()
		}
	}
}

// ProbeJoinLeftOuter probes the vertex index once per input tuple
// (vid, payload), emitting inner or left-outer rows. Tuples whose payload
// is the NullMsg marker (nil) represent live vertices from the Vid index
// rather than real messages. This is the right plan of Figure 8: it
// avoids scanning vertices that are neither live nor addressed, suited to
// message-sparse algorithms (e.g. SSSP).
func ProbeJoinLeftOuter(in TupleSource, idx storage.Index, emit JoinEmitter) error {
	for {
		t, err := in.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		v, err := idx.Search(t[0])
		if err == storage.ErrNotFound {
			if err := emit(t[0], t[1], nil); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		if err := emit(t[0], t[1], v); err != nil {
			return err
		}
	}
}

// ChooseMerge merges two sorted tuple streams by field 0; when both carry
// the same key, the tuple from a wins and b's is discarded. It implements
// the Merge(choose()) operator of the left-outer-join plan: a is the
// combined Msg stream, b the Vid null-message stream, so a vertex that is
// both live and addressed is processed once with its real messages.
type ChooseMerge struct {
	a, b       TupleSource
	at, bt     tuple.Tuple
	aerr, berr error
	started    bool
}

// NewChooseMerge returns the merge of a and b as a TupleSource.
func NewChooseMerge(a, b TupleSource) *ChooseMerge {
	return &ChooseMerge{a: a, b: b}
}

// Next returns the next tuple of the merged stream, or io.EOF once both
// inputs have ended.
func (m *ChooseMerge) Next() (tuple.Tuple, error) {
	if !m.started {
		m.at, m.aerr = m.a.Next()
		m.bt, m.berr = m.b.Next()
		m.started = true
	}
	// An input that failed ends the merge with its error; one that has
	// ended lets the other through.
	if m.aerr != nil && m.aerr != io.EOF {
		return nil, m.aerr
	}
	if m.berr != nil && m.berr != io.EOF {
		return nil, m.berr
	}
	if m.aerr != nil && m.berr != nil {
		return nil, io.EOF
	}
	// Take from the input with the smaller key, from both when the keys
	// are equal (a's tuple wins), from the other when one has ended.
	takeA, takeB := m.berr != nil, m.aerr != nil
	if !takeA && !takeB {
		c := bytes.Compare(m.at[0], m.bt[0])
		takeA, takeB = c <= 0, c >= 0
	}
	t := m.bt
	if takeA {
		t = m.at
		m.at, m.aerr = m.a.Next()
	}
	if takeB {
		m.bt, m.berr = m.b.Next()
	}
	return t, nil
}
