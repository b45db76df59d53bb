// Package tuple provides the byte-oriented tuple and frame representation
// that flows between dataflow operators, together with order-preserving
// field encodings and comparators.
//
// Relations in the Pregelix logical plan (Vertex, Msg, GS) are streams of
// tuples. On the data path, tuples live packed inside Frames — single
// pooled byte buffers with a trailing offset-slot directory — written via
// FrameAppender and read in place via TupleRef, so moving a tuple never
// materializes per-field objects. The boxed Tuple ([][]byte) remains as
// the compatibility view (TupleRef.Materialize) for call sites that
// legitimately retain data past a frame's lifetime. Vertex identifiers
// are encoded big-endian so that bytes.Compare on the encoded form agrees
// with numeric order; this lets sort, merge and join operators work
// directly on serialized keys.
package tuple

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Tuple is a single relational tuple: an ordered list of byte-string fields.
// Tuples are immutable by convention once handed to a downstream operator.
type Tuple [][]byte

// Clone returns a deep copy of the tuple. Operators that buffer tuples past
// the lifetime of the producing frame must clone them.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	for i, f := range t {
		nf := make([]byte, len(f))
		copy(nf, f)
		c[i] = nf
	}
	return c
}

// Size returns the number of payload bytes held by the tuple, used for
// memory accounting in operators and frames.
func (t Tuple) Size() int {
	n := 0
	for _, f := range t {
		n += len(f)
	}
	return n
}

// String renders the tuple for debugging; fields print as hex unless they
// look like an encoded uint64, in which case the decoded value is shown.
func (t Tuple) String() string {
	var b bytes.Buffer
	b.WriteByte('(')
	for i, f := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		if len(f) == 8 {
			fmt.Fprintf(&b, "%d", DecodeUint64(f))
		} else {
			fmt.Fprintf(&b, "%x", f)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// EncodeUint64 encodes v big-endian so lexicographic byte order equals
// numeric order.
func EncodeUint64(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// AppendUint64 appends the big-endian encoding of v to dst.
func AppendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// DecodeUint64 decodes a big-endian uint64. It panics if b is shorter than
// 8 bytes; callers own framing.
func DecodeUint64(b []byte) uint64 {
	return binary.BigEndian.Uint64(b)
}

// EncodeFloat64 encodes a float64 in IEEE-754 bits (little-endian). This
// encoding is NOT order-preserving; it is used only for payloads, never for
// sort keys.
func EncodeFloat64(v float64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return b
}

// DecodeFloat64 decodes a payload float64 written by EncodeFloat64.
func DecodeFloat64(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// MaxTupleFields bounds the field count of one decoded tuple, so a
// corrupt frame cannot drive a huge allocation from a count header.
const MaxTupleFields = 1 << 20

// Equal reports whether two tuples have identical fields.
func Equal(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
