package tuple

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
)

// appendAll packs tuples into frames, flushing full frames through emit.
func appendAll(t *testing.T, tuples []Tuple, emit func(*Frame)) {
	t.Helper()
	f := NewFrame()
	app := NewFrameAppender(f)
	for _, tp := range tuples {
		if app.AppendTuple(tp) {
			continue
		}
		emit(f)
		f.Reset()
		if !app.AppendTuple(tp) {
			t.Fatalf("tuple does not fit an empty frame")
		}
	}
	if f.Len() > 0 {
		emit(f)
	}
}

func checkTuple(t *testing.T, r TupleRef, want Tuple) {
	t.Helper()
	if r.FieldCount() != len(want) {
		t.Fatalf("field count %d want %d", r.FieldCount(), len(want))
	}
	for j := range want {
		if !bytes.Equal(r.Field(j), want[j]) {
			t.Fatalf("field %d = %x want %x", j, r.Field(j), want[j])
		}
	}
}

func TestFramePackAndReadInPlace(t *testing.T) {
	tuples := []Tuple{
		{EncodeUint64(1), []byte("hello")},
		{},                       // zero fields
		{nil, nil, []byte("x")},  // nil fields read back empty
		{[]byte{}, []byte("yy")}, // empty field
		{EncodeUint64(1<<64 - 1)},
	}
	f := NewFrame()
	app := NewFrameAppender(f)
	for _, tp := range tuples {
		if !app.AppendTuple(tp) {
			t.Fatalf("append failed")
		}
	}
	if f.Len() != len(tuples) {
		t.Fatalf("len %d want %d", f.Len(), len(tuples))
	}
	for i, want := range tuples {
		checkTuple(t, f.Tuple(i), want)
	}
	// Materialize must deep-copy.
	m := f.Tuple(0).Materialize()
	m[0][0] = 0xFF
	if f.Tuple(0).Field(0)[0] == 0xFF {
		t.Fatal("Materialize aliases the frame buffer")
	}
}

func TestFrameSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tuples []Tuple
	for i := 0; i < 3000; i++ {
		n := rng.Intn(5)
		tp := make(Tuple, n)
		for j := range tp {
			tp[j] = make([]byte, rng.Intn(40))
			rng.Read(tp[j])
		}
		tuples = append(tuples, tp)
	}
	// Pack into multiple frames (exercises frame-boundary flushes) and
	// serialize each flushed frame.
	var buf bytes.Buffer
	frames := 0
	appendAll(t, tuples, func(f *Frame) {
		frames++
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	})
	if frames < 2 {
		t.Fatalf("expected multiple frames, got %d", frames)
	}
	// Read them all back and compare against the source tuples.
	r := bytes.NewReader(buf.Bytes())
	f := NewFrame()
	idx := 0
	for {
		err := ReadFrameInto(r, f)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < f.Len(); i++ {
			checkTuple(t, f.Tuple(i), tuples[idx])
			idx++
		}
	}
	if idx != len(tuples) {
		t.Fatalf("read %d tuples want %d", idx, len(tuples))
	}
}

func TestFrameAppendRefCrossFrame(t *testing.T) {
	src := NewFrame()
	app := NewFrameAppender(src)
	app.Append([]byte("key"), []byte("value"), nil)
	dst := NewFrame()
	dapp := NewFrameAppender(dst)
	if !dapp.AppendRef(src.Tuple(0)) {
		t.Fatal("AppendRef failed")
	}
	src.Reset() // ref copies must survive source reset
	checkTuple(t, dst.Tuple(0), Tuple{[]byte("key"), []byte("value"), nil})
}

func TestFrameMaxSizeTupleRoundTrip(t *testing.T) {
	big := make([]byte, 3*DefaultFrameSize)
	for i := range big {
		big[i] = byte(i)
	}
	f := NewFrame()
	app := NewFrameAppender(f)
	if !app.Append(big, []byte("tail")) {
		t.Fatal("oversized tuple must fit an empty (grown) frame")
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	g := NewFrame()
	if err := ReadFrameInto(bytes.NewReader(buf.Bytes()), g); err != nil {
		t.Fatal(err)
	}
	checkTuple(t, g.Tuple(0), Tuple{big, []byte("tail")})
}

// TestFrameReadZeroAlloc is the acceptance check that the frame read
// path performs zero per-field allocations: iterating every tuple and
// field of a packed frame must not allocate.
func TestFrameReadZeroAlloc(t *testing.T) {
	f := NewFrame()
	app := NewFrameAppender(f)
	for i := 0; i < 100; i++ {
		if !app.Append(EncodeUint64(uint64(i)), []byte("payload-payload")) {
			t.Fatal("append failed")
		}
	}
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < f.Len(); i++ {
			r := f.Tuple(i)
			for j := 0; j < r.FieldCount(); j++ {
				sink += len(r.Field(j))
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("frame read path allocates %v allocs/run, want 0", allocs)
	}
	_ = sink
}

// TestFrameAppendZeroAlloc checks the steady-state write path: packing
// fields into an already-sized frame allocates nothing.
func TestFrameAppendZeroAlloc(t *testing.T) {
	f := NewFrame()
	app := NewFrameAppender(f)
	k := EncodeUint64(42)
	v := []byte("payload-payload")
	allocs := testing.AllocsPerRun(100, func() {
		f.Reset()
		for app.Append(k, v) {
		}
	})
	if allocs != 0 {
		t.Fatalf("frame append path allocates %v allocs/run, want 0", allocs)
	}
}

func TestReadFrameCorruptHeaderBounded(t *testing.T) {
	// A 4-byte header claiming a gigantic payload must error out, not
	// attempt the allocation.
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], 1<<31-1)
	binary.LittleEndian.PutUint32(hdr[4:], 1)
	if err := ReadFrameInto(bytes.NewReader(hdr[:]), NewFrame()); err == nil {
		t.Fatal("want error for implausible payload size")
	}
	binary.LittleEndian.PutUint32(hdr[0:], 16)
	binary.LittleEndian.PutUint32(hdr[4:], 1<<31-1)
	if err := ReadFrameInto(bytes.NewReader(hdr[:]), NewFrame()); err == nil {
		t.Fatal("want error for implausible tuple count")
	}
}

func TestReadFrameCorruptDirectoryRejected(t *testing.T) {
	f := NewFrame()
	app := NewFrameAppender(f)
	app.Append([]byte("abc"), []byte("defg"))
	app.Append([]byte("hij"), []byte("klmn"))
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// Corrupt the slot directory (last 8 bytes are the two slots).
	for _, off := range []int{len(img) - 4, len(img) - 8} {
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint32(bad[off:], 1<<30)
		if err := ReadFrameInto(bytes.NewReader(bad), NewFrame()); err == nil {
			t.Fatalf("corrupt slot at %d accepted", off)
		}
	}
	// Truncate mid-payload.
	if err := ReadFrameInto(bytes.NewReader(img[:len(img)-5]), NewFrame()); err == nil || err == io.EOF {
		t.Fatalf("truncated frame accepted: %v", err)
	}
}

func TestFramePoolLeaseAsserts(t *testing.T) {
	f := GetFrame()
	PutFrame(f)
	defer func() {
		if recover() == nil {
			t.Fatal("double PutFrame did not panic")
		}
	}()
	PutFrame(f)
}

func TestReadTupleBoundsFieldLength(t *testing.T) {
	// One field whose length header claims ~4 GiB: must error without
	// allocating the claimed size.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1) // field count
	buf.Write(hdr[:])
	binary.LittleEndian.PutUint32(hdr[:], 0xFFFF_FFF0) // field length
	buf.Write(hdr[:])
	if _, err := ReadTuple(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("want error for implausible field length")
	}

	// Many fields individually under the limit but implausible in total:
	// the cumulative bound must fire at the offending field's header,
	// before its body is allocated. Field bodies are synthesized zeros so
	// the test does not materialize the stream.
	fields := MaxTupleBytes/MaxTupleFieldBytes + 1
	binary.LittleEndian.PutUint32(hdr[:], uint32(fields))
	parts := []io.Reader{bytes.NewReader(append([]byte(nil), hdr[:]...))}
	binary.LittleEndian.PutUint32(hdr[:], MaxTupleFieldBytes)
	fh := append([]byte(nil), hdr[:]...)
	for i := 0; i < fields; i++ {
		parts = append(parts, bytes.NewReader(fh))
		if i < fields-1 {
			parts = append(parts, io.LimitReader(zeroReader{}, MaxTupleFieldBytes))
		}
	}
	_, err := ReadTuple(io.MultiReader(parts...))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("implausible tuple size")) {
		t.Fatalf("want implausible-tuple-size error, got %v", err)
	}
}

// zeroReader yields an endless stream of zero bytes.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// FuzzFrameRoundTrip packs arbitrary tuples derived from the fuzz input,
// serializes the frames, reads them back and requires equality.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAB}, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpret data as a sequence of tuples: first byte = field
		// count (mod 6), then per field one length byte + bytes.
		var tuples []Tuple
		for len(data) > 0 {
			n := int(data[0]) % 6
			data = data[1:]
			tp := make(Tuple, 0, n)
			for i := 0; i < n; i++ {
				if len(data) == 0 {
					break
				}
				l := int(data[0]) % 32
				data = data[1:]
				if l > len(data) {
					l = len(data)
				}
				tp = append(tp, append([]byte(nil), data[:l]...))
				data = data[l:]
			}
			tuples = append(tuples, tp)
			if len(tuples) > 2000 {
				break
			}
		}
		var buf bytes.Buffer
		fr := NewFrame()
		app := NewFrameAppender(fr)
		for _, tp := range tuples {
			if !app.AppendTuple(tp) {
				if err := WriteFrame(&buf, fr); err != nil {
					t.Fatal(err)
				}
				fr.Reset()
				if !app.AppendTuple(tp) {
					t.Fatal("append to empty frame failed")
				}
			}
		}
		if fr.Len() > 0 {
			if err := WriteFrame(&buf, fr); err != nil {
				t.Fatal(err)
			}
		}
		r := bytes.NewReader(buf.Bytes())
		g := NewFrame()
		idx := 0
		for {
			err := ReadFrameInto(r, g)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < g.Len(); i++ {
				ref := g.Tuple(i)
				want := tuples[idx]
				if ref.FieldCount() != len(want) {
					t.Fatalf("tuple %d: field count %d want %d", idx, ref.FieldCount(), len(want))
				}
				for j := range want {
					if !bytes.Equal(ref.Field(j), want[j]) {
						t.Fatalf("tuple %d field %d mismatch", idx, j)
					}
				}
				idx++
			}
		}
		if idx != len(tuples) {
			t.Fatalf("read %d tuples want %d", idx, len(tuples))
		}
	})
}

// fullFrame packs (8-byte key, 5-byte payload) tuples until no more fit.
func fullFrame(t *testing.T) *Frame {
	t.Helper()
	f := NewFrame()
	app := NewFrameAppender(f)
	for i := 0; app.Append(EncodeUint64(uint64(i)), []byte("hello")); i++ {
	}
	if f.Len() < 100 {
		t.Fatalf("frame took %d tuples", f.Len())
	}
	return f
}

// TestFieldViewsAreCutAtTheirLength: a field view is borrowed, and an
// append to it must go elsewhere: not over the records that follow the
// field in the frame, nor over the slot directory behind the last one.
func TestFieldViewsAreCutAtTheirLength(t *testing.T) {
	f := fullFrame(t)
	defer PutFrame(f)
	image := append([]byte(nil), f.buf...)
	junk := bytes.Repeat([]byte{0xEE}, DefaultFrameSize)
	var hdr Tuple
	for _, i := range []int{0, f.Len() / 2, f.Len() - 1} {
		r := f.Tuple(i)
		hdr = r.AppendFieldsTo(hdr[:0])
		for j := 0; j < r.FieldCount(); j++ {
			for _, view := range [][]byte{r.Field(j), hdr[j]} {
				if cap(view) != len(view) {
					t.Errorf("tuple %d field %d: a view of %d bytes has capacity %d", i, j, len(view), cap(view))
				}
				if grown := append(view, junk...); !bytes.Equal(grown[:len(view)], view) {
					t.Fatalf("tuple %d field %d: append lost the field", i, j)
				}
			}
		}
	}
	if !bytes.Equal(f.buf, image) {
		t.Fatal("an append to a field view wrote into the frame")
	}
	if err := f.validate(); err != nil {
		t.Fatalf("frame no longer valid: %v", err)
	}
}

// TestTupleAtAndOverwrite: a record is reached by the offset it was
// appended at as it is by its position, and Overwrite writes exactly the
// record it is called on, and only a tuple of that record's shape.
func TestTupleAtAndOverwrite(t *testing.T) {
	f := NewFrame()
	defer PutFrame(f)
	app := NewFrameAppender(f)
	tuples := []Tuple{
		{EncodeUint64(1), []byte("hello")},
		{},
		{nil, []byte("x"), nil},
		{EncodeUint64(2), []byte("world")},
	}
	var offs []int
	for _, tp := range tuples {
		offs = append(offs, f.DataBytes())
		if !app.AppendTuple(tp) {
			t.Fatal("append failed")
		}
	}
	for i, tp := range tuples {
		r := f.TupleAt(offs[i])
		checkTuple(t, r, tp)
		if r != f.Tuple(i) {
			t.Fatalf("TupleAt(%d) = %+v, Tuple(%d) = %+v", offs[i], r, i, f.Tuple(i))
		}
	}
	r := f.TupleAt(offs[0])
	for _, bad := range []Tuple{
		{EncodeUint64(1)},                       // a field short
		{EncodeUint64(1), []byte("hello"), nil}, // a field more
		{EncodeUint64(1), []byte("hell")},       // shorter
		{EncodeUint64(1), []byte("hello!")},     // longer
		{[]byte("1234567"), []byte("hello!")},   // same size, other fields
	} {
		if r.Overwrite(bad) {
			t.Fatalf("Overwrite took %v over %v", bad, tuples[0])
		}
	}
	checkTuple(t, r, tuples[0])
	if !r.Overwrite(Tuple{r.Field(0), []byte("HELLO")}) { // the key is the record's own
		t.Fatal("Overwrite refused a tuple of the record's shape")
	}
	tuples[0] = Tuple{EncodeUint64(1), []byte("HELLO")}
	if !f.TupleAt(offs[1]).Overwrite(Tuple{}) {
		t.Fatal("Overwrite refused the empty tuple over the empty record")
	}
	for i, tp := range tuples {
		checkTuple(t, f.Tuple(i), tp)
	}
	if err := f.validate(); err != nil {
		t.Fatalf("frame no longer valid: %v", err)
	}
}
