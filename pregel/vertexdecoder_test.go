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

// TestVertexRecordLayouts: a codec with edge values stores each edge as
// its dest, a u32 value length and the value; one without stores the
// dest alone, 4 bytes an edge fewer, drops an edge Value it is given,
// and takes no record whose length is not 8 bytes an edge past the
// count, a record in the other layout included.
func TestVertexRecordLayouts(t *testing.T) {
	val, w := Double(0.25), Double(3)
	v := &Vertex{Value: &val}
	for d := VertexID(1); d <= 8; d++ {
		v.AddEdge(d<<33|d, nil)
	}
	bare, valued := pageRankCodec.EncodeVertex(v), deltaCodec.EncodeVertex(v)
	if len(bare) != 81 || len(valued) != 113 {
		t.Fatalf("a vertex of 8 out-edges takes %d bytes without edge values and %d with them, want 81 and 113", len(bare), len(valued))
	}
	for _, tc := range []struct {
		c   *Codec
		rec []byte
	}{{pageRankCodec, bare}, {deltaCodec, valued}} {
		got, err := tc.c.DecodeVertex(5, tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != 5 || got.Halted || *got.Value.(*Double) != val || len(got.Edges) != len(v.Edges) {
			t.Fatalf("decoded %+v", got)
		}
		for i, e := range got.Edges {
			if e.Dest != v.Edges[i].Dest || e.Value != nil {
				t.Fatalf("edge %d decoded as %+v, want %+v", i, e, v.Edges[i])
			}
		}
		if enc := tc.c.EncodeVertex(got); !bytes.Equal(enc, tc.rec) {
			t.Fatalf("re-encoded to %x, want %x", enc, tc.rec)
		}
	}

	weighted := &Vertex{Halted: true, Value: &val, Edges: []Edge{{Dest: 7, Value: &w}, {Dest: 9, Value: &w}}}
	plain := &Vertex{Halted: true, Value: &val, Edges: []Edge{{Dest: 7}, {Dest: 9}}}
	rec := pageRankCodec.EncodeVertex(weighted)
	if !bytes.Equal(rec, pageRankCodec.EncodeVertex(plain)) {
		t.Fatalf("edge Values reached a record without them: %x", rec)
	}
	if got, err := pageRankCodec.DecodeVertex(1, rec); err != nil || got.Edges[0].Value != nil || got.Edges[1].Dest != 9 {
		t.Fatalf("decoded %+v, %v", got, err)
	}

	edgeCount := func(rec []byte, n uint32) []byte {
		rec = append([]byte(nil), rec...)
		binary.LittleEndian.PutUint32(rec[13:], n)
		return rec
	}
	for name, rec := range map[string][]byte{
		"old layout":      valued,
		"short":           bare[:len(bare)-1],
		"trailing bytes":  append(append([]byte(nil), bare...), 0),
		"one edge more":   edgeCount(bare, 9),
		"one edge fewer":  edgeCount(bare, 7),
		"weighted layout": deltaCodec.EncodeVertex(weighted),
		"halt byte 2":     append([]byte{2}, bare[1:]...),
	} {
		if _, err := pageRankCodec.DecodeVertex(1, rec); err == nil {
			t.Errorf("%s: DecodeVertex took %x", name, rec)
		}
		if _, err := pageRankCodec.NewVertexDecoder().Decode(1, rec); err == nil {
			t.Errorf("%s: VertexDecoder took %x", name, rec)
		}
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

// FuzzDecodeVertex: on any bytes, under both record layouts (deltaCodec
// has edge values, pageRankCodec has none), DecodeVertex and a
// VertexDecoder that has decoded other records before agree — the same
// error-or-not, the same vertex — neither panics, and neither allocates
// more than a small multiple of the input (the edge count is read from
// the record). A record the edge-value-free decoder accepts encodes back
// to the same bytes.
func FuzzDecodeVertex(f *testing.F) {
	pr, sssp, delta := sampleRecords()
	val := Double(0.15)
	oldPR := deltaCodec.EncodeVertex(&Vertex{Value: &val, Edges: []Edge{{Dest: 7}, {Dest: 9}}}) // PageRank's old layout
	for _, rec := range [][]byte{pr, sssp, delta, oldPR, hugeEdgeCount()} {
		f.Add(rec)
		f.Add(rec[:len(rec)-1])
		f.Add(rec[:len(rec)/2])
	}
	f.Add([]byte{})
	layouts := []struct {
		c      *Codec
		prime  []byte // a record whose state a stale Value could leak from
		reused *VertexDecoder
		// per bounds the bytes a decode allocates per record byte. An
		// Edge is 24 bytes in memory. With edge values it stands for at
		// least 12 in the record, and a Double edge value adds 8 more for
		// 8: under 4x. Without them it stands for exactly 8: 3x.
		per int
	}{
		{c: deltaCodec, prime: delta, per: 4},
		{c: pageRankCodec, prime: pr, per: 3},
	}
	for i := range layouts {
		layouts[i].reused = layouts[i].c.NewVertexDecoder()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, l := range layouts {
			if _, err := l.reused.Decode(9, l.prime); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fresh, ferr := l.c.DecodeVertex(3, data)
			runtime.ReadMemStats(&after)
			// The counter is the process's, so leave room for what the
			// fuzzing engine allocates meanwhile; a count taken on trust
			// costs 24 bytes per claimed edge.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(l.per*len(data))+1<<20 {
				t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
			}
			again, rerr := l.reused.Decode(3, data)
			if (ferr == nil) != (rerr == nil) {
				t.Fatalf("DecodeVertex: %v, VertexDecoder: %v", ferr, rerr)
			}
			if ferr != nil {
				continue
			}
			a, b := l.c.EncodeVertex(fresh), l.c.EncodeVertex(again)
			if !bytes.Equal(a, b) {
				t.Fatalf("DecodeVertex gives %x, the reused decoder %x", a, b)
			}
			if fresh.ID != again.ID || fresh.Halted != again.Halted || len(fresh.Edges) != len(again.Edges) {
				t.Fatalf("DecodeVertex gives %+v, the reused decoder %+v", fresh, again)
			}
			if l.c.NewEdgeValue != nil {
				continue
			}
			if binary.LittleEndian.Uint32(data[1:]) == 0 {
				// A zero-length value is the NULL value, which decodes to the
				// factory zero: encode it back as NULL.
				fresh.Value = nil
			}
			if enc := l.c.EncodeVertex(fresh); !bytes.Equal(enc, data) {
				t.Fatalf("%x decodes to a vertex that encodes to %x", data, enc)
			}
		}
	})
}

// FuzzDecodeMsgList: every message payload either fails to decode or
// decodes to Values that AppendMsgList encodes back to the same bytes,
// the same whether decoded fresh or into a list a previous payload left
// (as the compute task does), and without allocating by a claimed count.
// The empty payload is the NULL message list and decodes to no Values.
func FuzzDecodeMsgList(f *testing.F) {
	a, b, c := Double(0.5), Double(-1e300), Double(0)
	for _, list := range [][]byte{
		EncodeMsgList(&a),
		EncodeMsgList(&a, &b, &c),
		AppendMsgLists(EncodeMsgList(&a, &b), EncodeMsgList(&c)),
		EncodeMsgList(),
	} {
		f.Add(list)
		f.Add(list[:len(list)-1])
		f.Add(append(append([]byte(nil), list...), 0))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // claims 2^32-1 messages
	reused, err := pageRankCodec.DecodeMsgListInto(nil, EncodeMsgList(&a, &b, &c, &a, &b))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fresh, ferr := pageRankCodec.DecodeMsgList(data)
		runtime.ReadMemStats(&after)
		// A message is 16 bytes of interface plus 8 of Double for at least
		// 12 in the payload; leave room for the fuzzing engine's own.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		again, rerr := pageRankCodec.DecodeMsgListInto(reused, data)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("DecodeMsgList: %v, DecodeMsgListInto: %v", ferr, rerr)
		}
		if ferr != nil {
			return
		}
		if len(data) == 0 {
			if len(fresh) != 0 || len(again) != 0 {
				t.Fatalf("the empty payload decoded to %d and %d messages", len(fresh), len(again))
			}
			return
		}
		if enc := AppendMsgList(nil, fresh...); !bytes.Equal(enc, data) {
			t.Fatalf("%x decodes to %d messages that encode to %x", data, len(fresh), enc)
		}
		if enc := AppendMsgList(nil, again...); !bytes.Equal(enc, data) {
			t.Fatalf("%x decoded into a reused list encodes to %x", data, enc)
		}
	})
}
