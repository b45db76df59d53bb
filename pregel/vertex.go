package pregel

import (
	"encoding/binary"
	"fmt"
	"sync"
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

// EncodeVertex serializes v (without its ID, which is the index key)
// into a buffer of exactly the record's size.
func (c *Codec) EncodeVertex(v *Vertex) []byte {
	sp := encodeScratch.Get().(*[]byte)
	*sp = c.AppendVertex((*sp)[:0], v)
	rec := append(make([]byte, 0, len(*sp)), *sp...)
	encodeScratch.Put(sp)
	return rec
}

// encodeScratch holds the buffers EncodeVertex learns a record's size in.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// AppendVertex appends v's record to dst and returns the result; with a
// reused dst the compute path encodes without allocating.
func (c *Codec) AppendVertex(dst []byte, v *Vertex) []byte {
	if v.Halted {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendSized(dst, v.Value)
	dst = appendU32(dst, uint32(len(v.Edges)))
	for _, e := range v.Edges {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Dest))
		dst = appendSized(dst, e.Value)
	}
	return dst
}

// appendSized appends v's encoding behind its u32 length (0 for nil).
func appendSized(dst []byte, v Value) []byte {
	at := len(dst)
	dst = appendU32(dst, 0)
	if v != nil {
		dst = v.Marshal(dst)
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// DecodeVertex deserializes a vertex record stored under the given id
// into a Vertex of its own.
func (c *Codec) DecodeVertex(id VertexID, data []byte) (*Vertex, error) {
	return c.NewVertexDecoder().Decode(id, data)
}

// VertexDecoder decodes vertex records one after another into a single
// Vertex, for a caller that is done with one vertex before it decodes
// the next (the compute and dump scans): after the first few records a
// decode allocates nothing. The vertex value, the edge array and the edge
// Values are the decoder's own and every Decode installs them again, so
// a Compute that replaced v.Value, v.Edges or an edge's Value cannot leak
// that into the next record.
type VertexDecoder struct {
	c     *Codec
	v     Vertex
	value Value
	edges []Edge
	evs   []Value // evs[i] is the Value edge i decodes into, once it had one
}

// NewVertexDecoder returns a decoder for the codec's value types.
func (c *Codec) NewVertexDecoder() *VertexDecoder { return &VertexDecoder{c: c} }

// Decode deserializes the record stored under id. The Vertex it returns,
// its Edges and every Value in them are valid until the next Decode.
func (d *VertexDecoder) Decode(id VertexID, data []byte) (*Vertex, error) {
	if len(data) < 9 {
		return nil, fmt.Errorf("pregel: vertex record too short (%d bytes)", len(data))
	}
	off := 1
	vlen := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if off+vlen > len(data) {
		return nil, fmt.Errorf("pregel: vertex value overruns record")
	}
	if d.value == nil {
		d.value = d.c.NewVertexValue()
	}
	if err := d.value.Unmarshal(data[off : off+vlen]); err != nil {
		if vlen > 0 {
			return nil, err
		}
		// Zero-length encodings are legal only for types that accept
		// them (e.g. Bytes); other types get their factory zero, the
		// NULL-fields semantics of the full outer join's left case.
		d.value = d.c.NewVertexValue()
	}
	off += vlen
	if off+4 > len(data) {
		return nil, fmt.Errorf("pregel: vertex edge count missing")
	}
	ec := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	// The count is read from the record: bound it by the bytes left (12
	// per edge at least) before sizing anything by it.
	if ec > (len(data)-off)/12 {
		return nil, fmt.Errorf("pregel: vertex record of %d bytes claims %d edges", len(data), ec)
	}
	if ec > cap(d.edges) {
		d.edges = make([]Edge, 0, ec)
	}
	edges := d.edges[:0]
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
		if evLen > 0 && d.c.NewEdgeValue != nil {
			for len(d.evs) <= i {
				d.evs = append(d.evs, nil)
			}
			if d.evs[i] == nil {
				d.evs[i] = d.c.NewEdgeValue()
			}
			ev = d.evs[i]
			if err := ev.Unmarshal(data[off : off+evLen]); err != nil {
				return nil, err
			}
		}
		off += evLen
		edges = append(edges, Edge{Dest: dest, Value: ev})
	}
	d.v = Vertex{ID: id, Halted: data[0] != 0, Value: d.value, Edges: edges}
	return &d.v, nil
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
		dst = appendSized(dst, m)
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
