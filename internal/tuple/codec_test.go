package tuple

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"
)

// msgFrame builds a PageRank-message-shaped frame: count tuples of
// (8-byte big-endian vid, 8-byte float payload), vids start+i*stride.
func msgFrame(t *testing.T, count int, start, stride uint64) *Frame {
	t.Helper()
	f := NewFrame()
	a := NewFrameAppender(f)
	var vid, val [8]byte
	for i := 0; i < count; i++ {
		binary.BigEndian.PutUint64(vid[:], start+uint64(i)*stride)
		binary.LittleEndian.PutUint64(val[:], math.Float64bits(0.85/float64(i+1)))
		if !a.Append(vid[:], val[:]) {
			t.Fatalf("frame full after %d tuples", i)
		}
	}
	return f
}

// randFrame builds a frame of incompressible tuples with random-length
// leading fields (not delta-eligible).
func randFrame(t *testing.T, rng *rand.Rand, count int) *Frame {
	t.Helper()
	f := NewFrame()
	a := NewFrameAppender(f)
	for i := 0; i < count; i++ {
		k := make([]byte, 3+rng.Intn(9))
		v := make([]byte, rng.Intn(24))
		rng.Read(k)
		rng.Read(v)
		if !a.Append(k, v) {
			t.Fatalf("frame full after %d tuples", i)
		}
	}
	return f
}

func frameImage(t *testing.T, f *Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeBody runs one frame through the encoder and returns the tagged
// body as it would travel (raw frames materialized for comparison).
func encodeBody(t *testing.T, e *FrameEncoder, f *Frame) (byte, []byte) {
	t.Helper()
	enc, payload, err := e.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if enc == EncRaw {
		if payload != nil {
			t.Fatal("EncRaw must have nil payload")
		}
		return enc, frameImage(t, f)
	}
	return enc, append([]byte(nil), payload...)
}

func decodeBody(t *testing.T, d *FrameDecoder, enc byte, body []byte, f *Frame) error {
	t.Helper()
	return d.DecodeInto(enc, bytes.NewReader(body), len(body), f)
}

func TestFrameCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	frames := []*Frame{
		msgFrame(t, 900, 1_000_000, 3),      // dense ascending vids
		msgFrame(t, 900, 1<<60, 1),          // huge base
		msgFrame(t, 500, math.MaxUint64, 0), // constant max vid
		msgFrame(t, 1, 42, 0),
		randFrame(t, rng, 400),
		NewFrame(), // empty
	}
	defer func() {
		for _, f := range frames {
			PutFrame(f)
		}
	}()
	for _, mode := range []CompressMode{CompressOff, CompressFlate, CompressAuto} {
		e := NewFrameEncoder(mode)
		var d FrameDecoder
		for i, f := range frames {
			enc, body := encodeBody(t, e, f)
			got := GetFrame()
			if err := decodeBody(t, &d, enc, body, got); err != nil {
				t.Fatalf("mode %v frame %d (enc %d): %v", mode, i, enc, err)
			}
			if !bytes.Equal(frameImage(t, got), frameImage(t, f)) {
				t.Fatalf("mode %v frame %d (enc %d): image mismatch after round trip", mode, i, enc)
			}
			PutFrame(got)
		}
	}
}

func TestFrameCodecDescendingVids(t *testing.T) {
	f := NewFrame()
	defer PutFrame(f)
	a := NewFrameAppender(f)
	var vid [8]byte
	for i := 0; i < 300; i++ {
		binary.BigEndian.PutUint64(vid[:], uint64(1_000_000-17*i))
		if !a.Append(vid[:], []byte("x")) {
			t.Fatal("frame full")
		}
	}
	e := NewFrameEncoder(CompressAuto)
	enc, body := encodeBody(t, e, f)
	if enc != EncDelta {
		t.Fatalf("descending dense vids should delta-encode, got enc %d", enc)
	}
	var d FrameDecoder
	got := GetFrame()
	defer PutFrame(got)
	if err := decodeBody(t, &d, enc, body, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frameImage(t, got), frameImage(t, f)) {
		t.Fatal("image mismatch after round trip")
	}
}

func TestAutoPicksDeltaAndShrinks(t *testing.T) {
	f := msgFrame(t, 1000, 5_000_000, 2)
	defer PutFrame(f)
	e := NewFrameEncoder(CompressAuto)
	enc, payload, err := e.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if enc != EncDelta {
		t.Fatalf("message frame should delta-encode, got enc %d", enc)
	}
	raw := f.FrameImageSize()
	if len(payload)*10 > raw*7 {
		t.Fatalf("delta body %d bytes, want at least 30%% under raw %d", len(payload), raw)
	}
}

func TestAutoKeepsRawForIncompressible(t *testing.T) {
	// Large random fields: the fixed record headers are a sliver of the
	// payload, so the frame is genuinely incompressible. The leading
	// field is 16 bytes, so the delta codec is ineligible too.
	rng := rand.New(rand.NewSource(3))
	f := NewFrame()
	defer PutFrame(f)
	a := NewFrameAppender(f)
	k := make([]byte, 16)
	v := make([]byte, 300)
	for {
		rng.Read(k)
		rng.Read(v)
		if !a.Append(k, v) {
			break
		}
	}
	e := NewFrameEncoder(CompressAuto)
	enc, _, err := e.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if enc != EncRaw {
		t.Fatalf("incompressible frame should stay raw in auto mode, got enc %d", enc)
	}
	// The byte sample alone decided it: nothing was encoded on the way.
	if e.fw != nil || e.buf.Len() != 0 {
		t.Fatalf("auto wrote %d scratch bytes (DEFLATE writer constructed: %v) to keep a frame raw", e.buf.Len(), e.fw != nil)
	}
}

// TestAutoOnIncompressiblePayload pins, without a clock, what auto mode
// spends on the payload of wire's incompressible-shuffle test: 256-byte
// random values under unsorted, multiplicatively scrambled 8-byte vids.
// It never reaches DEFLATE (the writer is not even constructed) and
// makes at most one pass into its scratch buffer per frame. That pass is
// the delta codec's: eligibility is key width alone, and although no
// two consecutive vids are close, dropping the per-record headers still
// comes out a few percent under raw, so the delta body is taken — a
// full encode here and a full decode at the receiver for that few
// percent (auto has no minimum-saving threshold; ROADMAP item 3).
func TestAutoOnIncompressiblePayload(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewFrameEncoder(CompressAuto)
	var k [8]byte
	v := make([]byte, 256)
	for frames := 0; frames < 20; frames++ {
		f := NewFrame()
		a := NewFrameAppender(f)
		for i := 0; ; i++ {
			binary.BigEndian.PutUint64(k[:], uint64(frames*1000+i)*0x9E3779B97F4A7C15)
			rng.Read(v)
			if !a.Append(k[:], v) {
				break
			}
		}
		raw := f.FrameImageSize()
		enc, payload, err := e.EncodeFrame(f)
		PutFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if e.fw != nil {
			t.Fatal("auto constructed its DEFLATE writer on incompressible payload")
		}
		switch enc {
		case EncRaw:
		case EncDelta:
			// The one pass is the body that ships.
			if e.buf.Len() != len(payload) || len(payload) >= raw {
				t.Fatalf("%d scratch bytes for a %d-byte delta body of a %d-byte frame", e.buf.Len(), len(payload), raw)
			}
		default:
			t.Fatalf("enc %d, want raw or delta", enc)
		}
	}
}

func TestFlateShrinksMessageFrame(t *testing.T) {
	f := msgFrame(t, 1000, 5_000_000, 2)
	defer PutFrame(f)
	e := NewFrameEncoder(CompressFlate)
	enc, payload, err := e.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if enc != EncFlate {
		t.Fatalf("message frame should flate-encode, got enc %d", enc)
	}
	raw := f.FrameImageSize()
	if len(payload)*10 > raw*7 {
		t.Fatalf("flate body %d bytes, want at least 30%% under raw %d", len(payload), raw)
	}
}

// TestCodecRejectsCorruptBodies flips or truncates bytes of every
// encoding and requires a decode error, never a panic or silent
// corruption — the flate-path extension of the raw corrupt-stream
// tests.
func TestCodecRejectsCorruptBodies(t *testing.T) {
	f := msgFrame(t, 600, 9_000, 5)
	defer PutFrame(f)
	for _, mode := range []CompressMode{CompressFlate, CompressAuto} {
		e := NewFrameEncoder(mode)
		enc, body, err := e.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if enc == EncRaw {
			t.Fatalf("mode %v: message frame unexpectedly raw", mode)
		}
		var d FrameDecoder
		got := GetFrame()
		// Truncations at every prefix length must fail cleanly.
		for cut := 0; cut < len(body); cut += 1 + len(body)/64 {
			if err := d.DecodeInto(enc, bytes.NewReader(body[:cut]), cut, got); err == nil {
				t.Fatalf("mode %v: truncation at %d/%d decoded successfully", mode, cut, len(body))
			}
		}
		// Bit flips across the body must either fail or round-trip to a
		// structurally valid frame (flips inside field payload bytes are
		// legitimately undetectable); they must never panic.
		corrupt := append([]byte(nil), body...)
		for i := 0; i < len(corrupt); i += 1 + len(corrupt)/128 {
			corrupt[i] ^= 0x5a
			d.DecodeInto(enc, bytes.NewReader(corrupt), len(corrupt), got)
			corrupt[i] ^= 0x5a
		}
		// Trailing garbage after a valid body must be rejected.
		long := append(append([]byte(nil), body...), 0xde, 0xad)
		if err := d.DecodeInto(enc, bytes.NewReader(long), len(long), got); err == nil {
			t.Fatalf("mode %v: trailing bytes accepted", mode)
		}
		PutFrame(got)
	}
}

func TestDecodeRejectsUnknownEncoding(t *testing.T) {
	var d FrameDecoder
	f := GetFrame()
	defer PutFrame(f)
	if err := d.DecodeInto(99, bytes.NewReader([]byte{1, 2, 3}), 3, f); err == nil {
		t.Fatal("unknown encoding accepted")
	}
	if err := d.DecodeInto(EncDelta, bytes.NewReader(nil), -1, f); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestDeltaRejectsOversizedDeclarations(t *testing.T) {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(MaxFrameDataBytes+1))
	buf.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], 1)
	buf.Write(tmp[:n])
	var d FrameDecoder
	f := GetFrame()
	defer PutFrame(f)
	if err := d.DecodeInto(EncDelta, bytes.NewReader(buf.Bytes()), buf.Len(), f); err == nil {
		t.Fatal("oversized payload declaration accepted")
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frames := []*Frame{
		msgFrame(t, 700, 100, 7),
		randFrame(t, rng, 300),
		NewFrame(),
		msgFrame(t, 1, 9, 0),
	}
	defer func() {
		for _, f := range frames {
			PutFrame(f)
		}
	}()
	for _, mode := range []CompressMode{CompressOff, CompressFlate, CompressAuto} {
		var buf bytes.Buffer
		sw := NewFrameStreamWriter(&buf, mode)
		for _, f := range frames {
			if err := sw.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
		}
		if mode == CompressOff {
			// Off must be byte-identical to the legacy raw stream.
			var legacy bytes.Buffer
			for _, f := range frames {
				WriteFrame(&legacy, f)
			}
			if !bytes.Equal(buf.Bytes(), legacy.Bytes()) {
				t.Fatal("CompressOff stream differs from legacy raw stream")
			}
		}
		sr := NewFrameStreamReader(bytes.NewReader(buf.Bytes()))
		got := GetFrame()
		for i, f := range frames {
			if err := sr.ReadFrame(got); err != nil {
				t.Fatalf("mode %v frame %d: %v", mode, i, err)
			}
			if !bytes.Equal(frameImage(t, got), frameImage(t, f)) {
				t.Fatalf("mode %v frame %d: mismatch", mode, i)
			}
		}
		if err := sr.ReadFrame(got); err != io.EOF {
			t.Fatalf("mode %v: want clean io.EOF at end, got %v", mode, err)
		}
		PutFrame(got)
	}
}

// TestFrameStreamSniffsLegacy feeds a raw legacy stream (no magic) to
// the sniffing reader: old checkpoints and images from uncompressing
// peers must keep loading.
func TestFrameStreamSniffsLegacy(t *testing.T) {
	f := msgFrame(t, 500, 77, 3)
	defer PutFrame(f)
	var legacy bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteFrame(&legacy, f); err != nil {
			t.Fatal(err)
		}
	}
	sr := NewFrameStreamReader(bytes.NewReader(legacy.Bytes()))
	got := GetFrame()
	defer PutFrame(got)
	for i := 0; i < 3; i++ {
		if err := sr.ReadFrame(got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(frameImage(t, got), frameImage(t, f)) {
			t.Fatalf("frame %d: mismatch", i)
		}
	}
	if err := sr.ReadFrame(got); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestFrameStreamEmpty(t *testing.T) {
	sr := NewFrameStreamReader(bytes.NewReader(nil))
	f := GetFrame()
	defer PutFrame(f)
	if err := sr.ReadFrame(f); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
}

func TestFrameStreamRejectsTruncation(t *testing.T) {
	f := msgFrame(t, 400, 1000, 2)
	defer PutFrame(f)
	var buf bytes.Buffer
	sw := NewFrameStreamWriter(&buf, CompressFlate)
	if err := sw.WriteFrame(f); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	got := GetFrame()
	defer PutFrame(got)
	for _, cut := range []int{5, 6, 10, len(full) - 1} {
		sr := NewFrameStreamReader(bytes.NewReader(full[:cut]))
		if err := sr.ReadFrame(got); err == nil || err == io.EOF {
			t.Fatalf("truncation at %d: want decode error, got %v", cut, err)
		}
	}
}

func TestParseCompressMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CompressMode
	}{{"off", CompressOff}, {"", CompressOff}, {"flate", CompressFlate}, {"auto", CompressAuto}} {
		got, err := ParseCompressMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseCompressMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseCompressMode("gzip"); err == nil {
		t.Fatal("bad mode accepted")
	}
}
