// Package pregel defines the user-facing Pregel programming model of
// Pregelix: vertices, edges, the compute UDF and its context, message
// combiners, global aggregators, graph-mutation resolvers, and the job
// configuration (including the physical plan hints of Section 5.3).
//
// It mirrors the Java API of the paper's Figure 9: a user implements
// Program (and optionally Combiner/Aggregator/Resolver), configures a Job
// with codec factories and plan hints, and submits it to the Pregelix
// runtime.
package pregel

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Value is the Writable-style codec contract for vertex values, edge
// values, and messages: user-defined types serialize themselves so the
// runtime can treat them as opaque tuple fields.
type Value interface {
	// Marshal appends the encoded value to dst and returns the result.
	Marshal(dst []byte) []byte
	// Unmarshal decodes the value from data, replacing whatever the
	// receiver held (the engine decodes into values it reuses) and
	// copying what it keeps: data is only valid during the call.
	Unmarshal(data []byte) error
}

// Double is a float64 Value (the DoubleWritable of Figure 9).
type Double float64

// Marshal implements Value.
func (d Double) Marshal(dst []byte) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(d)))
	return append(dst, b[:]...)
}

// Unmarshal implements Value.
func (d *Double) Unmarshal(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("pregel: Double expects 8 bytes, got %d", len(data))
	}
	*d = Double(math.Float64frombits(binary.LittleEndian.Uint64(data)))
	return nil
}

// NewDouble is a codec factory for Double.
func NewDouble() Value { d := Double(0); return &d }

// Float is a float32 Value (the FloatWritable edge weight of Figure 9).
type Float float32

// Marshal implements Value.
func (f Float) Marshal(dst []byte) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], math.Float32bits(float32(f)))
	return append(dst, b[:]...)
}

// Unmarshal implements Value.
func (f *Float) Unmarshal(data []byte) error {
	if len(data) != 4 {
		return fmt.Errorf("pregel: Float expects 4 bytes, got %d", len(data))
	}
	*f = Float(math.Float32frombits(binary.LittleEndian.Uint32(data)))
	return nil
}

// NewFloat is a codec factory for Float.
func NewFloat() Value { f := Float(0); return &f }

// Int64 is an int64 Value (VLongWritable).
type Int64 int64

// Marshal implements Value.
func (v Int64) Marshal(dst []byte) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return append(dst, b[:]...)
}

// Unmarshal implements Value.
func (v *Int64) Unmarshal(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("pregel: Int64 expects 8 bytes, got %d", len(data))
	}
	*v = Int64(binary.LittleEndian.Uint64(data))
	return nil
}

// NewInt64 is a codec factory for Int64.
func NewInt64() Value { v := Int64(0); return &v }

// Bool is a boolean Value.
type Bool bool

// Marshal implements Value.
func (v Bool) Marshal(dst []byte) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Unmarshal implements Value.
func (v *Bool) Unmarshal(data []byte) error {
	if len(data) != 1 {
		return fmt.Errorf("pregel: Bool expects 1 byte, got %d", len(data))
	}
	*v = data[0] != 0
	return nil
}

// NewBool is a codec factory for Bool.
func NewBool() Value { v := Bool(false); return &v }

// Bytes is a raw byte-string Value for user-defined encodings (e.g. the
// k-mer payloads of the genome-assembly use case).
type Bytes []byte

// Marshal implements Value.
func (v Bytes) Marshal(dst []byte) []byte { return append(dst, v...) }

// Unmarshal implements Value.
func (v *Bytes) Unmarshal(data []byte) error {
	*v = append((*v)[:0], data...)
	return nil
}

// NewBytes is a codec factory for Bytes.
func NewBytes() Value { v := Bytes(nil); return &v }

// VIDList is a Value holding a list of vertex ids, used by algorithms
// that gossip neighbor sets (triangle counting, maximal cliques).
type VIDList []uint64

// Marshal implements Value.
func (v VIDList) Marshal(dst []byte) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(v)))
	dst = append(dst, b[:]...)
	for _, id := range v {
		binary.LittleEndian.PutUint64(b[:], id)
		dst = append(dst, b[:]...)
	}
	return dst
}

// Unmarshal implements Value.
func (v *VIDList) Unmarshal(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("pregel: VIDList too short")
	}
	n := binary.LittleEndian.Uint64(data)
	if uint64(len(data)) != 8+8*n {
		return fmt.Errorf("pregel: VIDList length mismatch")
	}
	out := make(VIDList, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(data[8+8*i:])
	}
	*v = out
	return nil
}

// NewVIDList is a codec factory for VIDList.
func NewVIDList() Value { v := VIDList(nil); return &v }

// MarshalValue encodes v, returning nil for a nil Value.
func MarshalValue(v Value) []byte {
	if v == nil {
		return nil
	}
	return v.Marshal(nil)
}
