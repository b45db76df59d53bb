package tuple

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// DefaultFrameSize is the byte capacity of a frame. Producers pack tuples
// into a frame until an append no longer fits, then flush it downstream,
// mirroring the fixed-size binary frame transport of the Hyracks engine.
const DefaultFrameSize = 32 * 1024

// maxPooledFrameBytes bounds the capacity of frames returned to the pool;
// frames grown for oversized tuples beyond this are left to the GC so one
// huge tuple does not pin a huge buffer forever.
const maxPooledFrameBytes = 4 * DefaultFrameSize

// Deserialization limits. A corrupt or hostile stream can otherwise drive
// allocation by gigabytes from a 4-byte header.
const (
	// MaxFrameDataBytes bounds the payload region of a deserialized frame.
	MaxFrameDataBytes = 1 << 26
	// MaxFrameTuples bounds the tuple count of a deserialized frame.
	MaxFrameTuples = 1 << 22
)

// Frame is a batch of tuples moved between operators in one transfer: a
// single contiguous byte buffer holding packed tuple records, with a slot
// directory growing backward from the end (Hyracks frame layout). It is
// the unit of flow control for connectors, of buffering for operators and
// materialization, and of I/O for run files and checkpoints.
//
// Layout of the buffer (capacity C = len(buf)):
//
//	buf[0 : dataEnd]            packed tuple records, back to back
//	buf[C-4-4*(i+1) : C-4-4*i]  u32 slot i: end offset of record i
//	buf[C-4 : C]                u32 tuple count
//
// Record i spans [slot(i-1), slot(i)) of the payload region (slot(-1)=0).
// Each record is self-describing:
//
//	u32 fieldCount n
//	n × u32 field end offsets, relative to the record's field data base
//	field bytes, concatenated
//
// Tuples are appended with a FrameAppender and read in place through
// TupleRef without materializing per-field objects.
//
// Ownership: a frame passed to FrameWriter.NextFrame is borrowed — the
// callee must copy (FrameAppender.AppendRef or TupleRef.Materialize)
// anything it retains past the call. A frame passed through a connector
// channel is owned by the receiver, which returns it to the pool with
// PutFrame when drained.
type Frame struct {
	buf     []byte
	dataEnd int
	count   int
	// leased guards the pool protocol: true while some owner holds the
	// frame. GetFrame/PutFrame assert on it so a frame recycled while a
	// consumer still holds it fails fast instead of corrupting data.
	leased atomic.Bool
}

// NewFrame returns an empty frame with the default capacity. It is marked
// leased so it may be handed to PutFrame like a pooled frame.
func NewFrame() *Frame {
	f := newFrameCap(DefaultFrameSize)
	f.leased.Store(true)
	leasedFrames.Add(1)
	return f
}

func newFrameCap(c int) *Frame {
	f := &Frame{buf: make([]byte, c)}
	f.setCount(0)
	return f
}

// Len returns the number of tuples in the frame.
func (f *Frame) Len() int { return f.count }

// DataBytes returns the size of the packed payload region: the byte count
// the frame header advertises for serialization and traffic accounting.
func (f *Frame) DataBytes() int { return f.dataEnd }

// Cap returns the frame buffer capacity in bytes.
func (f *Frame) Cap() int { return len(f.buf) }

// Reset empties the frame for reuse by a producer.
func (f *Frame) Reset() {
	f.dataEnd = 0
	f.count = 0
	f.setCount(0)
}

func (f *Frame) setCount(n int) {
	binary.LittleEndian.PutUint32(f.buf[len(f.buf)-4:], uint32(n))
}

func (f *Frame) putSlot(i int, end uint32) {
	off := len(f.buf) - 4 - 4*(i+1)
	binary.LittleEndian.PutUint32(f.buf[off:], end)
}

func (f *Frame) slot(i int) int {
	off := len(f.buf) - 4 - 4*(i+1)
	return int(binary.LittleEndian.Uint32(f.buf[off:]))
}

// recordBounds returns the [start, end) byte range of record i.
func (f *Frame) recordBounds(i int) (int, int) {
	start := 0
	if i > 0 {
		start = f.slot(i - 1)
	}
	return start, f.slot(i)
}

// Tuple returns a zero-copy reference to tuple i. The reference (and any
// field slice obtained from it) is valid only while the frame is neither
// reset nor released.
func (f *Frame) Tuple(i int) TupleRef {
	if i < 0 || i >= f.count {
		panic(fmt.Sprintf("tuple: frame tuple index %d out of %d", i, f.count))
	}
	start, end := f.recordBounds(i)
	return TupleRef{f: f, start: start, end: end}
}

// TupleAt returns a reference to the tuple whose record starts at byte
// off of the payload region (DataBytes before the record was appended):
// Tuple for a caller that kept the offset, read from the record itself
// and not from the slot directory at the far end of the buffer.
func (f *Frame) TupleAt(off int) TupleRef {
	if off < 0 || off+4 > f.dataEnd {
		panic(fmt.Sprintf("tuple: no record at offset %d of %d payload bytes", off, f.dataEnd))
	}
	end := off + 4 + 4*int(binary.LittleEndian.Uint32(f.buf[off:]))
	if end > off+4 {
		end += int(binary.LittleEndian.Uint32(f.buf[end-4:]))
	}
	return TupleRef{f: f, start: off, end: end}
}

// grow replaces the buffer with one of at least need bytes. Only legal on
// an empty frame (the slot directory would otherwise have to move).
func (f *Frame) grow(need int) {
	c := 2 * len(f.buf)
	if c < need {
		c = need
	}
	f.buf = make([]byte, c)
	f.setCount(0)
}

// TupleRef is a zero-copy view of one tuple inside a frame. Field returns
// subslices of the frame buffer; no per-field objects are allocated.
// A TupleRef must not outlive its frame's current filling — operators
// that buffer tuples past the producing NextFrame call must copy via
// Materialize (boxed) or FrameAppender.AppendRef (packed).
type TupleRef struct {
	f          *Frame
	start, end int
}

// FieldCount returns the number of fields in the tuple.
func (r TupleRef) FieldCount() int {
	return int(binary.LittleEndian.Uint32(r.f.buf[r.start:]))
}

// Field returns field i as a subslice of the frame buffer (zero copy),
// cut at its length: an append to it goes elsewhere, not over the bytes
// that follow the field in the frame.
func (r TupleRef) Field(i int) []byte {
	n := r.FieldCount()
	base := r.start + 4 + 4*n
	fs := 0
	if i > 0 {
		fs = int(binary.LittleEndian.Uint32(r.f.buf[r.start+4+4*(i-1):]))
	}
	fe := int(binary.LittleEndian.Uint32(r.f.buf[r.start+4+4*i:]))
	return r.f.buf[base+fs : base+fe : base+fe]
}

// Size returns the tuple's payload bytes (sum of field lengths).
func (r TupleRef) Size() int {
	n := r.FieldCount()
	return r.end - r.start - 4 - 4*n
}

// RecordSize returns the full packed record size including headers.
func (r TupleRef) RecordSize() int { return r.end - r.start }

// Materialize deep-copies the tuple into the boxed compatibility form for
// call sites that legitimately retain data past the frame's lifetime.
func (r TupleRef) Materialize() Tuple {
	n := r.FieldCount()
	t := make(Tuple, n)
	for i := 0; i < n; i++ {
		t[i] = append([]byte(nil), r.Field(i)...)
	}
	return t
}

// AppendFieldsTo appends the tuple's fields to dst and returns it. The
// appended slices alias the frame buffer, so the result is a borrowed
// view: reusing dst[:0] across tuples makes the view allocation-free.
func (r TupleRef) AppendFieldsTo(dst Tuple) Tuple {
	buf := r.f.buf
	n := r.FieldCount()
	base := r.start + 4 + 4*n
	lo := base
	for i := 0; i < n; i++ {
		hi := base + int(binary.LittleEndian.Uint32(buf[r.start+4+4*i:]))
		dst = append(dst, buf[lo:hi:hi])
		lo = hi
	}
	return dst
}

// Pair returns the fields of a two-field record, such as a (key, payload)
// tuple, as AppendFieldsTo would, and false for a record of any other
// field count.
func (r TupleRef) Pair() (key, val []byte, ok bool) {
	buf := r.f.buf
	if binary.LittleEndian.Uint32(buf[r.start:]) != 2 {
		return nil, nil, false
	}
	base := r.start + 12
	mid := base + int(binary.LittleEndian.Uint32(buf[r.start+4:]))
	end := base + int(binary.LittleEndian.Uint32(buf[r.start+8:]))
	return buf[base:mid:mid], buf[mid:end:end], true
}

// String renders the referenced tuple for debugging.
func (r TupleRef) String() string { return r.Materialize().String() }

// RefComparator orders tuples in place by their frame references.
type RefComparator func(a, b TupleRef) int

// KeyRefCompare compares two tuple refs on one field by raw byte order.
func KeyRefCompare(field int) RefComparator {
	return func(a, b TupleRef) int {
		return bytes.Compare(a.Field(field), b.Field(field))
	}
}

// Field0RefCompare is the common-case ref comparator on the leading
// field, which in Pregelix holds the big-endian vid.
var Field0RefCompare = KeyRefCompare(0)

// FrameAppender packs tuples into a frame. Append methods return false
// when the tuple does not fit in the remaining capacity — the caller
// flushes the frame, resets it, and retries. Appending to an empty frame
// always succeeds: the buffer grows to hold a tuple larger than the
// frame size (the "big object" escape hatch).
type FrameAppender struct {
	f *Frame
}

// NewFrameAppender returns an appender writing into f.
func NewFrameAppender(f *Frame) *FrameAppender {
	return &FrameAppender{f: f}
}

// Reset points the appender at a (usually fresh) frame.
func (a *FrameAppender) Reset(f *Frame) { a.f = f }

// Frame returns the frame currently being filled.
func (a *FrameAppender) Frame() *Frame { return a.f }

// Append packs one tuple from its fields. It reports whether the tuple
// was appended; false means the frame is full and must be flushed first.
func (a *FrameAppender) Append(fields ...[]byte) bool {
	f := a.f
	payload := 0
	for _, fl := range fields {
		payload += len(fl)
	}
	rec := 4 + 4*len(fields) + payload
	if !f.fit(rec) {
		return false
	}
	off := f.dataEnd
	binary.LittleEndian.PutUint32(f.buf[off:], uint32(len(fields)))
	base := off + 4 + 4*len(fields)
	end := 0
	for i, fl := range fields {
		copy(f.buf[base+end:], fl)
		end += len(fl)
		binary.LittleEndian.PutUint32(f.buf[off+4+4*i:], uint32(end))
	}
	f.commit(base + end)
	return true
}

// AppendTuple packs one boxed tuple.
func (a *FrameAppender) AppendTuple(t Tuple) bool { return a.Append(t...) }

// AppendRef copies one packed record from another frame in a single
// memmove — the cross-frame fast path used by connectors and sorts.
func (a *FrameAppender) AppendRef(r TupleRef) bool {
	f := a.f
	rec := r.RecordSize()
	if !f.fit(rec) {
		return false
	}
	copy(f.buf[f.dataEnd:], r.f.buf[r.start:r.end])
	f.commit(f.dataEnd + rec)
	return true
}

// fit ensures room for a rec-byte record plus its slot, growing an empty
// frame when the record alone exceeds the capacity.
func (f *Frame) fit(rec int) bool {
	need := f.dataEnd + rec + 4*(f.count+1) + 4
	if need <= len(f.buf) {
		return true
	}
	if f.count > 0 {
		return false
	}
	f.grow(need)
	return true
}

// commit finalizes a record ending at newEnd: slot, count, trailer.
func (f *Frame) commit(newEnd int) {
	f.dataEnd = newEnd
	f.putSlot(f.count, uint32(newEnd))
	f.count++
	f.setCount(f.count)
}

// framePool recycles frame buffers across producers and consumers so the
// steady-state data path performs no allocation per frame.
var framePool = sync.Pool{New: func() any { return newFrameCap(DefaultFrameSize) }}

// leasedFrames counts frames currently held by some owner (taken via
// GetFrame or created leased via NewFrame, not yet returned through
// PutFrame). Tests use it to assert that failure paths strand no frames
// outside the pool.
var leasedFrames atomic.Int64

// LeasedFrames returns the number of frames currently leased. A
// steady-state delta of zero around a run means every frame that left
// the pool went back.
func LeasedFrames() int64 { return leasedFrames.Load() }

// GetFrame takes an empty frame from the pool. The caller owns it until
// it hands ownership downstream (connector channel) or returns it with
// PutFrame.
func GetFrame() *Frame {
	f := framePool.Get().(*Frame)
	if !f.leased.CompareAndSwap(false, true) {
		panic("tuple: pooled frame is already leased (frame reused while a consumer holds it)")
	}
	leasedFrames.Add(1)
	f.Reset()
	return f
}

// PutFrame returns a frame to the pool. It panics if the frame was
// already released — the assertion that no frame is recycled while some
// consumer still holds it.
func PutFrame(f *Frame) {
	if f == nil {
		return
	}
	if !f.leased.CompareAndSwap(true, false) {
		panic("tuple: frame released twice")
	}
	leasedFrames.Add(-1)
	if len(f.buf) > maxPooledFrameBytes {
		return // oversized: let the GC take it
	}
	f.Reset()
	framePool.Put(f)
}

// WriteFrame serializes the frame's used bytes in one compact image:
// u32 payload length, u32 tuple count, payload region, slot directory.
// The image is self-delimiting, so streams of frames need no extra
// framing, and deserialization is two bulk copies with no per-tuple work.
func WriteFrame(w io.Writer, f *Frame) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(f.dataEnd))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(f.count))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(f.buf[:f.dataEnd]); err != nil {
		return err
	}
	slots := f.buf[len(f.buf)-4-4*f.count : len(f.buf)-4]
	if _, err := w.Write(slots); err != nil {
		return err
	}
	return nil
}

// FrameImageSize returns the serialized size of the frame produced by
// WriteFrame.
func (f *Frame) FrameImageSize() int { return 8 + f.dataEnd + 4*f.count }

// ReadFrameInto deserializes one frame image into f, growing f's buffer
// when needed and validating the directory and record structure so a
// corrupt stream cannot cause out-of-bounds access (or gigabyte
// allocations) later. It returns io.EOF at a clean end of stream.
func ReadFrameInto(r io.Reader, f *Frame) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("tuple: truncated frame header: %w", err)
		}
		return err
	}
	return readFrameBody(r, hdr, f, -1)
}

// readFrameBody reads the payload and directory that an image header
// announces into f. size, unless negative, is the image's known length:
// a header that disagrees with it is refused before the frame grows to
// what the header claims.
func readFrameBody(r io.Reader, hdr [8]byte, f *Frame, size int) error {
	dataEnd := int(binary.LittleEndian.Uint32(hdr[0:]))
	count := int(binary.LittleEndian.Uint32(hdr[4:]))
	if dataEnd > MaxFrameDataBytes {
		return fmt.Errorf("tuple: implausible frame payload %d bytes", dataEnd)
	}
	if count > MaxFrameTuples {
		return fmt.Errorf("tuple: implausible frame tuple count %d", count)
	}
	if size >= 0 && 8+dataEnd+4*count != size {
		return fmt.Errorf("tuple: frame image header claims %d bytes, the image has %d", 8+dataEnd+4*count, size)
	}
	f.Reset()
	if need := dataEnd + 4*count + 4; need > len(f.buf) {
		f.grow(need)
	}
	if err := readFull(r, f.buf[:dataEnd]); err != nil {
		return fmt.Errorf("tuple: truncated frame payload: %w", err)
	}
	slots := f.buf[len(f.buf)-4-4*count : len(f.buf)-4]
	if err := readFull(r, slots); err != nil {
		return fmt.Errorf("tuple: truncated frame directory: %w", err)
	}
	f.dataEnd = dataEnd
	f.count = count
	f.setCount(count)
	if err := f.validate(); err != nil {
		f.Reset()
		return err
	}
	return nil
}

// readFull is io.ReadFull inside a frame, where the stream ending before
// the first byte is as much a truncation as ending after it.
func readFull(r io.Reader, p []byte) error {
	if _, err := io.ReadFull(r, p); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// validate checks directory and record invariants of a deserialized
// frame: slots non-decreasing and ending exactly at dataEnd, and every
// record's field offsets consistent with its size.
func (f *Frame) validate() error {
	if f.count == 0 {
		if f.dataEnd != 0 {
			return fmt.Errorf("tuple: corrupt frame: %d payload bytes with no tuples", f.dataEnd)
		}
		return nil
	}
	prev := 0
	for i := 0; i < f.count; i++ {
		end := f.slot(i)
		if end < prev || end > f.dataEnd {
			return fmt.Errorf("tuple: corrupt frame: slot %d = %d outside [%d, %d]", i, end, prev, f.dataEnd)
		}
		if err := validateRecord(f.buf[prev:end]); err != nil {
			return fmt.Errorf("tuple: corrupt frame record %d: %w", i, err)
		}
		prev = end
	}
	if prev != f.dataEnd {
		return fmt.Errorf("tuple: corrupt frame: records end at %d, payload at %d", prev, f.dataEnd)
	}
	return nil
}

// validateRecord checks one packed record's internal consistency.
func validateRecord(rec []byte) error {
	if len(rec) < 4 {
		return fmt.Errorf("record shorter than field count header")
	}
	n := int(binary.LittleEndian.Uint32(rec))
	if n > MaxTupleFields {
		return fmt.Errorf("implausible field count %d", n)
	}
	base := 4 + 4*n
	if base > len(rec) {
		return fmt.Errorf("field directory overruns record")
	}
	prev := 0
	for i := 0; i < n; i++ {
		end := int(binary.LittleEndian.Uint32(rec[4+4*i:]))
		if end < prev || base+end > len(rec) {
			return fmt.Errorf("field %d end %d out of bounds", i, end)
		}
		prev = end
	}
	if base+prev != len(rec) {
		return fmt.Errorf("fields end at %d, record at %d", base+prev, len(rec))
	}
	return nil
}
