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
// vid is always set. All three may be views (of a run reader's frame, of
// the leaf a cursor has pinned), valid for the call only: the emitter
// must not retain them. When the join runs over a cursor (FullOuterMerge,
// ProbeMerge), a row's vertex is the record the cursor stands on, and the
// emitter may write it back with the cursor's Update.
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
// message-sparse algorithms (e.g. SSSP). It opens one cursor on idx,
// probes it with ProbeMerge and closes it.
func ProbeJoinLeftOuter(in TupleSource, idx storage.Index, emit JoinEmitter) error {
	cur, err := idx.ScanFrom(nil)
	if err != nil {
		return err
	}
	defer cur.Close()
	return ProbeMerge(in, cur, emit)
}

// ProbeMerge is the probe loop of ProbeJoinLeftOuter over a cursor the
// caller opened (and closes): it Seeks each input vid on cur, so a
// sorted input walks the index leaf by leaf rather than descending once
// per vid. An input tuple need only stay valid until the following
// in.Next, and the vertex is read as a view. During an inner emit the
// row's vertex is the record the cursor found, so the emitter may write
// it back with cur.Update. A probe that fails on an I/O error ends the
// join with that error instead of emitting a left-outer row.
func ProbeMerge(in TupleSource, cur storage.IndexCursor, emit JoinEmitter) error {
	for {
		t, err := in.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		v, ok := cur.Seek(t[0])
		if !ok {
			if err := cur.Err(); err != nil {
				return err
			}
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
// both live and addressed is processed once with its real messages. It
// advances a source past the tuple it returned only at the following
// Next, so the sources may return views (RunSource) and so may it.
type ChooseMerge struct {
	a, b       TupleSource
	at, bt     tuple.Tuple
	aerr, berr error
	// advA and advB name the sources whose tuples were taken last.
	advA, advB bool
}

// NewChooseMerge returns the merge of a and b as a TupleSource.
func NewChooseMerge(a, b TupleSource) *ChooseMerge {
	return &ChooseMerge{a: a, b: b, advA: true, advB: true}
}

// Next returns the next tuple of the merged stream, valid until the
// following Next, or io.EOF once both inputs have ended.
func (m *ChooseMerge) Next() (tuple.Tuple, error) {
	if m.advA {
		m.at, m.aerr = m.a.Next()
	}
	if m.advB {
		m.bt, m.berr = m.b.Next()
	}
	m.advA, m.advB = false, false
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
	m.advA, m.advB = takeA, takeB
	if takeA {
		return m.at, nil
	}
	return m.bt, nil
}
