package pregel

import (
	"encoding/binary"
	"fmt"
)

// VertexID identifies a vertex. IDs are encoded big-endian in the engine
// so byte order equals numeric order.
type VertexID uint64

// Edge is one outgoing edge with an optional user-defined value.
type Edge struct {
	Dest  VertexID
	Value Value
}

// Vertex is one row of the Vertex relation (Table 1): identifier, halt
// flag, user value, and outgoing edges. Compute mutates it in place.
type Vertex struct {
	ID     VertexID
	Halted bool
	Value  Value
	Edges  []Edge
}

// VoteToHalt deactivates the vertex; it is reactivated automatically if
// it receives a message in a later superstep.
func (v *Vertex) VoteToHalt() { v.Halted = true }

// Activate clears the halt flag.
func (v *Vertex) Activate() { v.Halted = false }

// AddEdge appends an outgoing edge.
func (v *Vertex) AddEdge(dest VertexID, value Value) {
	v.Edges = append(v.Edges, Edge{Dest: dest, Value: value})
}

// RemoveEdge removes all edges to dest, reporting whether any existed.
func (v *Vertex) RemoveEdge(dest VertexID) bool {
	out := v.Edges[:0]
	removed := false
	for _, e := range v.Edges {
		if e.Dest == dest {
			removed = true
			continue
		}
		out = append(out, e)
	}
	v.Edges = out
	return removed
}

// Codec serializes vertices and message lists using the job's value
// factories; the engine stores and ships only the encoded forms.
type Codec struct {
	// NewVertexValue creates a zero vertex value; required.
	NewVertexValue func() Value
	// NewEdgeValue creates a zero edge value; nil means edges carry no
	// value.
	NewEdgeValue func() Value
	// NewMessage creates a zero message; required for jobs that send
	// messages.
	NewMessage func() Value
}

// Vertex record layout:
//
//	u8  halt
//	u32 valueLen | value bytes
//	u32 edgeCount | per edge: u64 dest, u32 evLen, ev bytes

// EncodeVertex serializes v (without its ID, which is the index key).
func (c *Codec) EncodeVertex(v *Vertex) []byte {
	buf := make([]byte, 0, 16+len(v.Edges)*12)
	if v.Halted {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	val := MarshalValue(v.Value)
	buf = appendU32(buf, uint32(len(val)))
	buf = append(buf, val...)
	buf = appendU32(buf, uint32(len(v.Edges)))
	for _, e := range v.Edges {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(e.Dest))
		buf = append(buf, b[:]...)
		ev := MarshalValue(e.Value)
		buf = appendU32(buf, uint32(len(ev)))
		buf = append(buf, ev...)
	}
	return buf
}

// DecodeVertex deserializes a vertex record stored under the given id.
func (c *Codec) DecodeVertex(id VertexID, data []byte) (*Vertex, error) {
	if len(data) < 9 {
		return nil, fmt.Errorf("pregel: vertex record too short (%d bytes)", len(data))
	}
	v := &Vertex{ID: id, Halted: data[0] != 0}
	off := 1
	vlen := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if off+vlen > len(data) {
		return nil, fmt.Errorf("pregel: vertex value overruns record")
	}
	v.Value = c.NewVertexValue()
	if vlen > 0 {
		if err := v.Value.Unmarshal(data[off : off+vlen]); err != nil {
			return nil, err
		}
	} else if err := v.Value.Unmarshal(data[off:off]); err != nil {
		// Zero-length encodings are legal only for types that accept
		// them (e.g. Bytes); other types keep their factory zero, the
		// NULL-fields semantics of the full outer join's left case.
		_ = err
	}
	off += vlen
	if off+4 > len(data) {
		return nil, fmt.Errorf("pregel: vertex edge count missing")
	}
	ec := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	v.Edges = make([]Edge, 0, ec)
	for i := 0; i < ec; i++ {
		if off+12 > len(data) {
			return nil, fmt.Errorf("pregel: edge %d overruns record", i)
		}
		dest := VertexID(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		evLen := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if off+evLen > len(data) {
			return nil, fmt.Errorf("pregel: edge %d value overruns record", i)
		}
		var ev Value
		if evLen > 0 && c.NewEdgeValue != nil {
			ev = c.NewEdgeValue()
			if err := ev.Unmarshal(data[off : off+evLen]); err != nil {
				return nil, err
			}
		}
		off += evLen
		v.Edges = append(v.Edges, Edge{Dest: dest, Value: ev})
	}
	return v, nil
}

// Message-list layout: u32 count | per message: u32 len, bytes.
// The Msg relation's payload field always holds such a list; a combined
// message is a one-element list.

// EncodeMsgList serializes messages into one payload.
func EncodeMsgList(msgs ...Value) []byte { return AppendMsgList(nil, msgs...) }

// AppendMsgList appends the encoded list of msgs to dst and returns the
// result; with a reused dst the hot paths (one send, one combine) encode
// without allocating.
func AppendMsgList(dst []byte, msgs ...Value) []byte {
	dst = appendU32(dst, uint32(len(msgs)))
	for _, m := range msgs {
		at := len(dst)
		dst = appendU32(dst, 0)
		if m != nil {
			dst = m.Marshal(dst)
		}
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	return dst
}

// AppendMsgLists appends the messages of list b to list a (the default
// no-combiner behaviour: gather all messages for a destination). Like
// append it writes into a's spare capacity, so a must be a list the
// caller owns, and gathering a long list takes amortized linear time.
func AppendMsgLists(a, b []byte) []byte {
	n := binary.LittleEndian.Uint32(a) + binary.LittleEndian.Uint32(b)
	a = append(a, b[4:]...)
	binary.LittleEndian.PutUint32(a, n)
	return a
}

// DecodeMsgList deserializes a message payload with the codec.
func (c *Codec) DecodeMsgList(data []byte) ([]Value, error) {
	return c.DecodeMsgListInto(nil, data)
}

// DecodeMsgListInto is DecodeMsgList into dst[:0]: it decodes into the
// Values dst already holds (up to its capacity) and creates only the
// missing ones, so a caller that keeps dst between calls decodes
// without allocating. The Values of an earlier call are overwritten.
func (c *Codec) DecodeMsgListInto(dst []Value, data []byte) ([]Value, error) {
	have := dst[:cap(dst)]
	dst = dst[:0]
	if len(data) == 0 {
		return dst, nil
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("pregel: message list too short")
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n > (len(data)-4)/4 { // every message has a 4-byte header
		return nil, fmt.Errorf("pregel: message list of %d bytes claims %d messages", len(data), n)
	}
	if n > cap(dst) {
		dst = make([]Value, 0, n)
	}
	off := 4
	for i := 0; i < n; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("pregel: message %d header overruns", i)
		}
		l := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if off+l > len(data) {
			return nil, fmt.Errorf("pregel: message %d overruns", i)
		}
		var m Value
		if i < len(have) && have[i] != nil {
			m = have[i]
		} else {
			m = c.NewMessage()
		}
		if err := m.Unmarshal(data[off : off+l]); err != nil {
			return nil, err
		}
		off += l
		dst = append(dst, m)
	}
	return dst, nil
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}
