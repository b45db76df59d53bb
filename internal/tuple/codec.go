package tuple

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
)

// Frame compression. A frame image (the WriteFrame serialization) can be
// shipped in one of three encodings:
//
//	EncRaw    the plain image — today's zero-copy path, unchanged
//	EncFlate  stdlib DEFLATE of the whole image, one independent
//	          stream per frame so any frame decodes alone
//	EncDelta  a frame-aware codec: message frames are dominated by
//	          8-byte big-endian vertex IDs in field 0 (the partitioner
//	          and B-tree ordering make them locally dense), so the
//	          codec ships zigzag-varint deltas of consecutive IDs plus
//	          varint-length-prefixed remaining fields, dropping the
//	          fixed u32 record headers entirely
//
// A FrameEncoder picks the encoding per frame: CompressFlate always
// tries DEFLATE, CompressAuto prefers the (much cheaper) delta codec
// when every tuple leads with an 8-byte key, falls back to DEFLATE when
// a cheap byte sample looks compressible, and keeps the raw fast path
// otherwise. An encoded body is kept only when it saves at least
// 1/minSaving of the raw image; otherwise the frame goes EncRaw, so
// incompressible payloads never pay more than the one-byte encoding
// tag, nor an encode and decode for a few percent.
//
// The same codec serves three transports: wire DATA messages (every
// message carries [enc u8][body] — see package wire), and checkpoint +
// migration images via FrameStreamWriter/FrameStreamReader below.

// CompressMode selects the frame compression policy of a process.
type CompressMode int

const (
	// CompressOff ships raw frame images everywhere. Its checkpoint and
	// migration images are the legacy format, byte-identical to builds
	// without compression support; on the wire each raw image still
	// carries its one-byte EncRaw tag.
	CompressOff CompressMode = iota
	// CompressFlate compresses every frame with DEFLATE unless the
	// result would be larger than the raw image.
	CompressFlate
	// CompressAuto chooses per frame: delta codec for vertex-ID-led
	// frames, DEFLATE for other compressible payloads, raw otherwise.
	CompressAuto
)

// ParseCompressMode parses the -compress flag value.
func ParseCompressMode(s string) (CompressMode, error) {
	switch s {
	case "off", "":
		return CompressOff, nil
	case "flate":
		return CompressFlate, nil
	case "auto":
		return CompressAuto, nil
	}
	return CompressOff, fmt.Errorf("tuple: unknown compress mode %q (want off, flate or auto)", s)
}

func (m CompressMode) String() string {
	switch m {
	case CompressFlate:
		return "flate"
	case CompressAuto:
		return "auto"
	}
	return "off"
}

// Frame payload encodings (the one-byte tag in front of each encoded
// frame body).
const (
	EncRaw   byte = 0
	EncFlate byte = 1
	EncDelta byte = 2
)

// MaxEncodedFrameBytes bounds one encoded frame body. Encoders never
// emit more than the raw image (they fall back to EncRaw), so the raw
// image bound is the stream bound too.
const MaxEncodedFrameBytes = 8 + MaxFrameDataBytes + 4*MaxFrameTuples

// maxFlateExpansion is DEFLATE's largest inflation ratio: a 258-byte
// match costs at least two bits, so no body inflates past 1032 times its
// length.
const maxFlateExpansion = 1032

// FrameEncoder encodes frames for one stream or file. Not safe for
// concurrent use; the returned payload is valid until the next
// EncodeFrame call.
type FrameEncoder struct {
	mode CompressMode
	buf  bytes.Buffer
	fw   *flate.Writer
}

// NewFrameEncoder returns an encoder with the given policy.
func NewFrameEncoder(mode CompressMode) *FrameEncoder {
	return &FrameEncoder{mode: mode}
}

// minSaving sets the least an encoding must save to be taken: 1/8 of
// the raw image. Below that the encode, and the decode at the other
// end, cost more than the bytes they save.
const minSaving = 8

// EncodeFrame picks an encoding for f. For EncRaw the payload is nil
// and the caller streams the image itself (tuple.WriteFrame), keeping
// the zero-copy path; otherwise the payload is the encoded body.
func (e *FrameEncoder) EncodeFrame(f *Frame) (byte, []byte, error) {
	var enc byte
	var p []byte
	switch {
	case e.mode == CompressAuto && deltaEligible(f):
		enc, p = EncDelta, e.delta(f)
	case e.mode == CompressFlate || e.mode == CompressAuto && sampleCompressible(f):
		var err error
		if p, err = e.deflate(f); err != nil {
			return 0, nil, err
		}
		enc = EncFlate
	default:
		return EncRaw, nil, nil
	}
	if raw := f.FrameImageSize(); minSaving*(raw-len(p)) < raw {
		return EncRaw, nil, nil
	}
	return enc, p, nil
}

// deflate compresses the whole frame image as one independent DEFLATE
// stream into the encoder's scratch buffer.
func (e *FrameEncoder) deflate(f *Frame) ([]byte, error) {
	e.buf.Reset()
	if e.fw == nil {
		fw, err := flate.NewWriter(&e.buf, flate.BestSpeed)
		if err != nil {
			return nil, err
		}
		e.fw = fw
	} else {
		e.fw.Reset(&e.buf)
	}
	if err := WriteFrame(e.fw, f); err != nil {
		return nil, err
	}
	if err := e.fw.Close(); err != nil {
		return nil, err
	}
	return e.buf.Bytes(), nil
}

// deltaEligible reports whether every tuple leads with an 8-byte key
// field — the shape of message and vertex frames, whose field 0 is the
// big-endian vid.
func deltaEligible(f *Frame) bool {
	if f.count == 0 {
		return false
	}
	for i := 0; i < f.count; i++ {
		start, end := f.recordBounds(i)
		if end-start < 8 {
			return false
		}
		n := int(binary.LittleEndian.Uint32(f.buf[start:]))
		if n < 1 {
			return false
		}
		// Field 0 ends at offset 8 of the record's field data.
		if binary.LittleEndian.Uint32(f.buf[start+4:]) != 8 {
			return false
		}
	}
	return true
}

// delta encodes the frame with the vertex-ID delta codec:
//
//	uvarint dataEnd, uvarint count, then per tuple:
//	uvarint fieldCount, zigzag-varint vid delta (vs previous tuple),
//	and for each remaining field: uvarint length + raw bytes
func (e *FrameEncoder) delta(f *Frame) []byte {
	e.buf.Reset()
	var tmp [binary.MaxVarintLen64]byte
	putU := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		e.buf.Write(tmp[:n])
	}
	putU(uint64(f.dataEnd))
	putU(uint64(f.count))
	prev := uint64(0)
	for i := 0; i < f.count; i++ {
		r := f.Tuple(i)
		n := r.FieldCount()
		putU(uint64(n))
		vid := binary.BigEndian.Uint64(r.Field(0))
		// Wrapping difference: int64(vid-prev) is small for locally
		// dense IDs in either direction and round-trips exactly.
		d := binary.PutVarint(tmp[:], int64(vid-prev))
		e.buf.Write(tmp[:d])
		prev = vid
		for j := 1; j < n; j++ {
			fl := r.Field(j)
			putU(uint64(len(fl)))
			e.buf.Write(fl)
		}
	}
	return e.buf.Bytes()
}

// sampleCompressible guesses whether DEFLATE is worth running by
// sampling up to 256 payload bytes and measuring zero-byte density —
// packed record headers and sparse values are zero-heavy, while
// incompressible payloads (random or already-compressed field bytes)
// have near-zero density.
func sampleCompressible(f *Frame) bool {
	n := f.dataEnd
	if n == 0 {
		return false
	}
	const samples = 256
	step := n / samples
	if step == 0 {
		step = 1
	}
	zeros, seen := 0, 0
	for off := 0; off < n; off += step {
		seen++
		if f.buf[off] == 0 {
			zeros++
		}
	}
	// Compressible if at least 1 in 8 sampled bytes is zero.
	return zeros*8 >= seen
}

// FrameDecoder decodes frame bodies produced by a FrameEncoder. Not
// safe for concurrent use.
type FrameDecoder struct {
	fr      io.ReadCloser
	scratch []byte
	fields  [][]byte
	vid     [8]byte
}

// DecodeInto reads one encoded frame body of exactly length bytes from
// r and reconstructs the frame into f. The frame is validated exactly
// as ReadFrameInto validates a raw image; corrupt or truncated bodies
// return an error with f left empty.
func (d *FrameDecoder) DecodeInto(enc byte, r io.Reader, length int, f *Frame) error {
	if length < 0 || length > MaxEncodedFrameBytes {
		return fmt.Errorf("tuple: implausible encoded frame body of %d bytes", length)
	}
	switch enc {
	case EncRaw:
		// A raw image's header fixes its size, so it is checked against
		// the body length before anything is read past it.
		var hdr [8]byte
		if length < len(hdr) {
			return fmt.Errorf("tuple: %d-byte raw frame image", length)
		}
		if err := readFull(r, hdr[:]); err != nil {
			return fmt.Errorf("tuple: truncated frame header: %w", err)
		}
		return readFrameBody(r, hdr, f, length)
	case EncFlate:
		// The limited reader exposes ReadByte so flate consumes exactly
		// the compressed stream and trailing garbage stays detectable.
		lr := &limitedByteReader{r: r, n: int64(length)}
		if d.fr == nil {
			d.fr = flate.NewReader(lr)
		} else if err := d.fr.(flate.Resetter).Reset(lr, nil); err != nil {
			return err
		}
		// The inflated header is checked before the frame grows to it: no
		// DEFLATE body inflates past maxFlateExpansion times its length.
		var hdr [8]byte
		err := readFull(d.fr, hdr[:])
		if err == nil {
			claim := 8 + uint64(binary.LittleEndian.Uint32(hdr[0:])) + 4*uint64(binary.LittleEndian.Uint32(hdr[4:]))
			if claim > maxFlateExpansion*uint64(length) {
				return fmt.Errorf("tuple: a %d-byte compressed frame claims a %d-byte image", length, claim)
			}
			err = readFrameBody(d.fr, hdr, f, -1)
		}
		if err != nil {
			return fmt.Errorf("tuple: corrupt compressed frame: %w", err)
		}
		// The DEFLATE stream must end exactly with the image and must
		// consume the advertised body exactly.
		var one [1]byte
		if n, err := d.fr.Read(one[:]); n != 0 || err != io.EOF {
			f.Reset()
			return fmt.Errorf("tuple: compressed frame has trailing data")
		}
		if lr.n != 0 {
			f.Reset()
			return fmt.Errorf("tuple: compressed frame body length mismatch (%d bytes left)", lr.n)
		}
		return nil
	case EncDelta:
		if cap(d.scratch) < length {
			d.scratch = make([]byte, length)
		}
		body := d.scratch[:length]
		if _, err := io.ReadFull(r, body); err != nil {
			return fmt.Errorf("tuple: truncated delta frame body: %w", err)
		}
		return d.decodeDelta(body, f)
	}
	return fmt.Errorf("tuple: unknown frame encoding %d", enc)
}

// limitedByteReader is an io.LimitedReader that also satisfies
// io.ByteReader, so compress/flate reads exactly the bytes of its
// stream instead of buffering ahead — anything left over is trailing
// data the decoder can reject.
type limitedByteReader struct {
	r io.Reader
	n int64
}

func (l *limitedByteReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

func (l *limitedByteReader) ReadByte() (byte, error) {
	if l.n <= 0 {
		return 0, io.EOF
	}
	if br, ok := l.r.(io.ByteReader); ok {
		b, err := br.ReadByte()
		if err == nil {
			l.n--
		}
		return b, err
	}
	var buf [1]byte
	if _, err := io.ReadFull(l.r, buf[:]); err != nil {
		return 0, err
	}
	l.n--
	return buf[0], nil
}

// decodeDelta rebuilds a frame from the delta codec body. The frame is
// reconstructed through the appender, so every record invariant that
// validate() checks holds by construction; the declared dataEnd and
// count are cross-checked at the end.
func (d *FrameDecoder) decodeDelta(p []byte, f *Frame) error {
	corrupt := func(what string) error {
		f.Reset()
		return fmt.Errorf("tuple: corrupt delta frame: %s", what)
	}
	off := 0
	nextU := func() (uint64, bool) {
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	dataEnd64, ok := nextU()
	if !ok {
		return corrupt("bad payload length")
	}
	count64, ok := nextU()
	if !ok {
		return corrupt("bad tuple count")
	}
	if dataEnd64 > MaxFrameDataBytes {
		return fmt.Errorf("tuple: implausible frame payload %d bytes", dataEnd64)
	}
	if count64 > MaxFrameTuples {
		return fmt.Errorf("tuple: implausible frame tuple count %d", count64)
	}
	// A tuple costs the body at least two bytes (field count, vid delta)
	// and makes at most a 16-byte record of them, so the body bounds the
	// frame it can describe: a larger claim is refused before the frame
	// grows to it.
	if count64 > uint64(len(p))/2 || dataEnd64 > 8*uint64(len(p)) {
		return corrupt("declared size exceeds what the body encodes")
	}
	dataEnd, count := int(dataEnd64), int(count64)
	f.Reset()
	if need := dataEnd + 4*count + 4; need > len(f.buf) {
		f.grow(need)
	}
	a := FrameAppender{f: f}
	prev := uint64(0)
	for i := 0; i < count; i++ {
		nf64, ok := nextU()
		if !ok || nf64 < 1 || nf64 > MaxTupleFields {
			return corrupt("bad field count")
		}
		nf := int(nf64)
		delta, n := binary.Varint(p[off:])
		if n <= 0 {
			return corrupt("bad vid delta")
		}
		off += n
		prev += uint64(delta)
		binary.BigEndian.PutUint64(d.vid[:], prev)
		d.fields = append(d.fields[:0], d.vid[:])
		for j := 1; j < nf; j++ {
			l64, ok := nextU()
			if !ok || l64 > uint64(len(p)-off) {
				return corrupt("bad field length")
			}
			l := int(l64)
			d.fields = append(d.fields, p[off:off+l])
			off += l
		}
		if !a.Append(d.fields...) {
			return corrupt("tuples overflow declared payload")
		}
	}
	if f.dataEnd != dataEnd || f.count != count {
		return corrupt("declared size does not match tuples")
	}
	if off != len(p) {
		return corrupt("trailing bytes")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Frame streams: checkpoint and migration images.
// ---------------------------------------------------------------------------

// frameStreamMagic prefixes an encoded frame stream. Read as the
// little-endian u32 a raw image starts with, it exceeds
// MaxFrameDataBytes, so no valid raw stream can collide with it — one
// 4-byte peek tells the two formats apart.
var frameStreamMagic = [4]byte{'P', 'G', 'X', 'C'}

// FrameStreamWriter writes a sequence of frame images to one file or
// buffer. With CompressOff the output is the legacy stream of raw
// images, byte for byte; otherwise the stream is the magic followed by
// [enc u8][u32 LE body length][body] per frame. Checkpoint and
// migration images use it on both sides of the wire.
type FrameStreamWriter struct {
	w       io.Writer
	mode    CompressMode
	enc     *FrameEncoder
	started bool
}

// NewFrameStreamWriter returns a stream writer with the given policy.
func NewFrameStreamWriter(w io.Writer, mode CompressMode) *FrameStreamWriter {
	return &FrameStreamWriter{w: w, mode: mode, enc: NewFrameEncoder(mode)}
}

// WriteFrame appends one frame to the stream.
func (sw *FrameStreamWriter) WriteFrame(f *Frame) error {
	if sw.mode == CompressOff {
		return WriteFrame(sw.w, f)
	}
	if !sw.started {
		sw.started = true
		if _, err := sw.w.Write(frameStreamMagic[:]); err != nil {
			return err
		}
	}
	enc, payload, err := sw.enc.EncodeFrame(f)
	if err != nil {
		return err
	}
	n := len(payload)
	if enc == EncRaw {
		n = f.FrameImageSize()
	}
	var hdr [5]byte
	hdr[0] = enc
	binary.LittleEndian.PutUint32(hdr[1:], uint32(n))
	if _, err := sw.w.Write(hdr[:]); err != nil {
		return err
	}
	if enc == EncRaw {
		return WriteFrame(sw.w, f)
	}
	_, err = sw.w.Write(payload)
	return err
}

// FrameStreamReader reads a sequence of frame images written either by
// FrameStreamWriter or as legacy raw images, sniffing the format from
// the first four bytes. Readers therefore interoperate with images
// produced by any peer, compressing or not.
type FrameStreamReader struct {
	br      *bufio.Reader
	dec     FrameDecoder
	sniffed bool
	encoded bool
}

// NewFrameStreamReader returns a sniffing stream reader over r.
func NewFrameStreamReader(r io.Reader) *FrameStreamReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &FrameStreamReader{br: br}
}

// ReadFrame reads the next frame image into f. It returns io.EOF at a
// clean end of stream.
func (sr *FrameStreamReader) ReadFrame(f *Frame) error {
	if !sr.sniffed {
		sr.sniffed = true
		if pk, err := sr.br.Peek(4); err == nil && bytes.Equal(pk, frameStreamMagic[:]) {
			sr.encoded = true
			sr.br.Discard(4)
		}
	}
	if !sr.encoded {
		return ReadFrameInto(sr.br, f)
	}
	var hdr [5]byte
	if _, err := io.ReadFull(sr.br, hdr[:1]); err != nil {
		return err // io.EOF at a clean frame boundary
	}
	if _, err := io.ReadFull(sr.br, hdr[1:]); err != nil {
		return fmt.Errorf("tuple: truncated encoded frame header: %w", err)
	}
	length := int(binary.LittleEndian.Uint32(hdr[1:]))
	return sr.dec.DecodeInto(hdr[0], sr.br, length, f)
}
