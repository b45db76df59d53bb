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

// TestTupleAt: a record is reached by the offset it was appended at as
// it is by its position.
func TestTupleAt(t *testing.T) {
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
	if err := f.validate(); err != nil {
		t.Fatalf("frame no longer valid: %v", err)
	}
}

// TestPairViews: Pair gives a two-field record's fields as
// AppendFieldsTo does, each cut at its length, and refuses a record of
// any other field count.
func TestPairViews(t *testing.T) {
	f := NewFrame()
	defer PutFrame(f)
	app := NewFrameAppender(f)
	tuples := []Tuple{
		{EncodeUint64(1), []byte("payload")},
		{EncodeUint64(2)},
		{[]byte("k"), nil},
		{EncodeUint64(3), []byte("a"), []byte("b")},
		{EncodeUint64(4), EncodeFloat64(0.5)},
	}
	offs := make([]int, len(tuples))
	for i, tp := range tuples {
		offs[i] = f.DataBytes()
		if !app.AppendTuple(tp) {
			t.Fatal("frame full")
		}
	}
	for i, tp := range tuples {
		r := f.TupleAt(offs[i])
		key, val, ok := r.Pair()
		if ok != (len(tp) == 2) {
			t.Fatalf("tuple %d of %d fields: Pair says %v", i, len(tp), ok)
		}
		if !ok {
			continue
		}
		if !bytes.Equal(key, tp[0]) || !bytes.Equal(val, tp[1]) || cap(key) != len(key) || cap(val) != len(val) {
			t.Fatalf("tuple %d: Pair gives %x (cap %d), %x (cap %d), want %x, %x", i, key, cap(key), val, cap(val), tp[0], tp[1])
		}
	}
}
