package pregel

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// Codecs and records of the three shapes the engine stores: PageRank (no
// edge values), SSSP (a Float weight on every edge) and deltapagerank (a
// Double on the edges that have pushed mass, nothing on the others).
var (
	pageRankCodec = &Codec{NewVertexValue: NewDouble, NewMessage: NewDouble}
	ssspCodec     = testCodec()
	deltaCodec    = &Codec{NewVertexValue: NewDouble, NewEdgeValue: NewDouble, NewMessage: NewDouble}
)

func sampleRecords() (pr, sssp, delta []byte) {
	val := Double(0.15)
	w1, w2 := Float(1.5), Float(0.25)
	d := Double(0.0425)
	pr = pageRankCodec.EncodeVertex(&Vertex{Value: &val, Edges: []Edge{{Dest: 7}, {Dest: 9}, {Dest: 1 << 40}}})
	sssp = ssspCodec.EncodeVertex(&Vertex{Halted: true, Value: &val, Edges: []Edge{{Dest: 7, Value: &w1}, {Dest: 9, Value: &w2}}})
	delta = deltaCodec.EncodeVertex(&Vertex{Halted: true, Value: &val, Edges: []Edge{{Dest: 7, Value: &d}, {Dest: 9}, {Dest: 11, Value: &d}}})
	return pr, sssp, delta
}

// hugeEdgeCount is a 21-byte record that claims 2^32-1 edges: sizing the
// edge array by the claim, as DecodeVertex used to, is an allocation of
// 96 GiB, which ends the process (out of memory is not a panic).
func hugeEdgeCount() []byte {
	val := Double(1)
	rec := pageRankCodec.EncodeVertex(&Vertex{Value: &val})
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], 1<<32-1)
	return append(rec, make([]byte, 4)...)
}

func TestAppendVertexMatchesEncodeVertex(t *testing.T) {
	pr, sssp, delta := sampleRecords()
	for i, tc := range []struct {
		c   *Codec
		rec []byte
	}{{pageRankCodec, pr}, {ssspCodec, sssp}, {deltaCodec, delta}} {
		v, err := tc.c.DecodeVertex(5, tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		enc := tc.c.EncodeVertex(v)
		if !bytes.Equal(enc, tc.rec) {
			t.Fatalf("case %d: EncodeVertex(DecodeVertex(rec)) = %x, want %x", i, enc, tc.rec)
		}
		if cap(enc) != len(enc) {
			t.Fatalf("case %d: EncodeVertex returned %d bytes in a buffer of %d", i, len(enc), cap(enc))
		}
		prefix := []byte("kept")
		if got := tc.c.AppendVertex(prefix, v); !bytes.Equal(got[:4], prefix) || !bytes.Equal(got[4:], tc.rec) {
			t.Fatalf("case %d: AppendVertex = %x", i, got)
		}
	}
	// A Double vertex without edges is 17 bytes: the size the old 16-byte
	// capacity guess was one short of.
	val := Double(1)
	if rec := pageRankCodec.EncodeVertex(&Vertex{Value: &val}); len(rec) != 17 || cap(rec) != 17 {
		t.Fatalf("edgeless Double vertex: len %d cap %d, want 17", len(rec), cap(rec))
	}
}

// TestVertexDecoderInstallsItsOwnState: whatever a caller leaves in the
// decoded Vertex — another Value, edge Values of its own, a longer or
// shorter edge slice — the next Decode returns exactly the record.
func TestVertexDecoderInstallsItsOwnState(t *testing.T) {
	_, _, delta := sampleRecords()
	val := Double(9)
	bare := deltaCodec.EncodeVertex(&Vertex{Value: &val, Edges: []Edge{{Dest: 1}, {Dest: 2}, {Dest: 3}, {Dest: 4}}})
	dec := deltaCodec.NewVertexDecoder()
	v, err := dec.Decode(1, delta)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 1 || !v.Halted || len(v.Edges) != 3 || v.Edges[1].Value != nil || *v.Edges[2].Value.(*Double) != 0.0425 {
		t.Fatalf("first decode: %+v", v)
	}
	// What a Compute within the old contract may do.
	foreign, stale := Double(77), Double(88)
	v.Value = &foreign
	v.Edges[1].Value = &stale // deltapagerank's first push down an edge
	v.Edges = append(v.Edges, Edge{Dest: 99, Value: &stale})
	v.Halted = false

	v, err = dec.Decode(2, bare)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 2 || v.Halted || *v.Value.(*Double) != 9 || len(v.Edges) != 4 {
		t.Fatalf("second decode: %+v", v)
	}
	for i, e := range v.Edges {
		if e.Dest != VertexID(i+1) || e.Value != nil {
			t.Fatalf("edge %d of a record without edge values decoded as %+v: a stale Value leaked", i, e)
		}
	}
	if foreign != 77 || stale != 88 {
		t.Fatalf("the decoder wrote into Values the caller installed: %v %v", foreign, stale)
	}
	// And back: the first record again, after the caller truncated Edges.
	v.Edges = v.Edges[:1]
	if v, err = dec.Decode(1, delta); err != nil || !bytes.Equal(deltaCodec.EncodeVertex(v), delta) {
		t.Fatalf("third decode: %+v, %v", v, err)
	}
}

// TestVertexDecoderZeroLengthValue: a zero-length value leaves a type
// that cannot decode it at its factory zero, not at what the previous
// record held.
func TestVertexDecoderZeroLengthValue(t *testing.T) {
	val := Double(3)
	full := pageRankCodec.EncodeVertex(&Vertex{Value: &val})
	null := pageRankCodec.EncodeVertex(&Vertex{}) // nil Value: zero-length encoding
	dec := pageRankCodec.NewVertexDecoder()
	if _, err := dec.Decode(1, full); err != nil {
		t.Fatal(err)
	}
	v, err := dec.Decode(2, null)
	if err != nil {
		t.Fatal(err)
	}
	if got := *v.Value.(*Double); got != 0 {
		t.Fatalf("value after a zero-length encoding = %v, want the factory zero", got)
	}
}

func TestVertexDecoderAllocations(t *testing.T) {
	_, sssp, _ := sampleRecords()
	dec := ssspCodec.NewVertexDecoder()
	var buf []byte
	allocs := testing.AllocsPerRun(100, func() {
		v, err := dec.Decode(1, sssp)
		if err != nil {
			t.Fatal(err)
		}
		buf = ssspCodec.AppendVertex(buf[:0], v)
	})
	if allocs != 0 || !bytes.Equal(buf, sssp) {
		t.Fatalf("decode + append-encode of a record seen before: %.1f allocations, %x", allocs, buf)
	}
}

func TestDecodeVertexBoundsEdgeCount(t *testing.T) {
	rec := hugeEdgeCount()
	if len(rec) != 21 {
		t.Fatalf("fixture is %d bytes", len(rec))
	}
	if _, err := pageRankCodec.DecodeVertex(1, rec); err == nil {
		t.Fatal("DecodeVertex took a 21-byte record claiming 2^32-1 edges")
	}
	if _, err := pageRankCodec.NewVertexDecoder().Decode(1, rec); err == nil {
		t.Fatal("VertexDecoder took a 21-byte record claiming 2^32-1 edges")
	}
}

// FuzzDecodeVertex: on any bytes, DecodeVertex and a VertexDecoder that
// has decoded other records before agree — the same error-or-not, the
// same vertex — neither panics, and neither allocates more than a small
// multiple of the input (the edge count is read from the record).
func FuzzDecodeVertex(f *testing.F) {
	pr, sssp, delta := sampleRecords()
	for _, rec := range [][]byte{pr, sssp, delta, hugeEdgeCount()} {
		f.Add(rec)
		f.Add(rec[:len(rec)-1])
		f.Add(rec[:len(rec)/2])
	}
	f.Add([]byte{})
	reused := deltaCodec.NewVertexDecoder()
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := reused.Decode(9, delta); err != nil { // state a stale Value could leak from
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fresh, ferr := deltaCodec.DecodeVertex(3, data)
		runtime.ReadMemStats(&after)
		// An Edge is 24 bytes in memory for at least 12 in the record, and a
		// Double edge value 8 more for 8: under 4x. The counter is the
		// process's, so leave room for what the fuzzing engine allocates
		// meanwhile; a count taken on trust costs 24 bytes per claimed edge.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		again, rerr := reused.Decode(3, data)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("DecodeVertex: %v, VertexDecoder: %v", ferr, rerr)
		}
		if ferr != nil {
			return
		}
		a, b := deltaCodec.EncodeVertex(fresh), deltaCodec.EncodeVertex(again)
		if !bytes.Equal(a, b) {
			t.Fatalf("DecodeVertex gives %x, the reused decoder %x", a, b)
		}
		if fresh.ID != again.ID || fresh.Halted != again.Halted || len(fresh.Edges) != len(again.Edges) {
			t.Fatalf("DecodeVertex gives %+v, the reused decoder %+v", fresh, again)
		}
	})
}
