package tuple

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestUint64EncodingOrderPreserving(t *testing.T) {
	f := func(a, b uint64) bool {
		ea, eb := EncodeUint64(a), EncodeUint64(b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool { return DecodeUint64(EncodeUint64(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -3.25, math.MaxFloat64, math.Inf(1), math.SmallestNonzeroFloat64} {
		if DecodeFloat64(EncodeFloat64(v)) != v {
			t.Fatalf("round trip failed for %v", v)
		}
	}
	if !math.IsNaN(DecodeFloat64(EncodeFloat64(math.NaN()))) {
		t.Fatal("NaN round trip failed")
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	orig := Tuple{[]byte{1, 2}, []byte{3}}
	c := orig.Clone()
	c[0][0] = 99
	if orig[0][0] == 99 {
		t.Fatal("clone shares memory with original")
	}
}

func TestFrameCapacityAndGrowth(t *testing.T) {
	f := NewFrame()
	app := NewFrameAppender(f)
	// An oversized tuple on an empty frame grows the buffer.
	big := make([]byte, 2*DefaultFrameSize)
	if !app.Append(big) {
		t.Fatal("append to empty frame must always succeed")
	}
	if f.Len() != 1 || f.Cap() <= DefaultFrameSize {
		t.Fatalf("frame did not grow: len=%d cap=%d", f.Len(), f.Cap())
	}
	// A full frame rejects further appends until reset.
	if app.Append([]byte("x")) {
		t.Fatal("append to a full frame should report false")
	}
	f.Reset()
	if f.Len() != 0 || f.DataBytes() != 0 {
		t.Fatal("reset did not clear frame")
	}
	if !app.Append([]byte("small")) {
		t.Fatal("small tuple should fit after reset")
	}
}

func TestComparators(t *testing.T) {
	f := NewFrame()
	defer PutFrame(f)
	app := NewFrameAppender(f)
	app.Append(EncodeUint64(5), []byte("x"))
	app.Append(EncodeUint64(9), []byte("a"))
	a, b := f.Tuple(0), f.Tuple(1)
	if Field0RefCompare(a, b) >= 0 || Field0RefCompare(b, a) <= 0 || Field0RefCompare(a, a) != 0 {
		t.Fatal("Field0RefCompare broken")
	}
	if KeyRefCompare(1)(a, b) <= 0 {
		t.Fatal("KeyRefCompare(1) broken")
	}
	if ta, tb := a.Materialize(), b.Materialize(); !Equal(ta, ta.Clone()) || Equal(ta, tb) {
		t.Fatal("Equal broken")
	}
}
