package pregel

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestDoubleRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		d := Double(x)
		var got Double
		if err := got.Unmarshal(d.Marshal(nil)); err != nil {
			return false
		}
		return got == d || (math.IsNaN(x) && math.IsNaN(float64(got)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInt64RoundTrip(t *testing.T) {
	f := func(x int64) bool {
		v := Int64(x)
		var got Int64
		if err := got.Unmarshal(v.Marshal(nil)); err != nil {
			return false
		}
		return got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloatBoolBytesRoundTrip(t *testing.T) {
	fl := Float(3.25)
	var gf Float
	if err := gf.Unmarshal(fl.Marshal(nil)); err != nil || gf != fl {
		t.Fatalf("float: %v %v", gf, err)
	}
	bo := Bool(true)
	var gb Bool
	if err := gb.Unmarshal(bo.Marshal(nil)); err != nil || !bool(gb) {
		t.Fatalf("bool: %v %v", gb, err)
	}
	by := Bytes("hello")
	var gby Bytes
	if err := gby.Unmarshal(by.Marshal(nil)); err != nil || string(gby) != "hello" {
		t.Fatalf("bytes: %q %v", gby, err)
	}
}

func TestVIDListRoundTrip(t *testing.T) {
	f := func(ids []uint64) bool {
		v := VIDList(ids)
		var got VIDList
		if err := got.Unmarshal(v.Marshal(nil)); err != nil {
			return false
		}
		if len(got) != len(ids) {
			return false
		}
		for i := range ids {
			if got[i] != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueUnmarshalErrors(t *testing.T) {
	var d Double
	if err := d.Unmarshal([]byte{1, 2}); err == nil {
		t.Fatal("short double should error")
	}
	var v Int64
	if err := v.Unmarshal(nil); err == nil {
		t.Fatal("empty int64 should error")
	}
	var l VIDList
	if err := l.Unmarshal([]byte{9, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("truncated VIDList should error")
	}
}

func testCodec() *Codec {
	return &Codec{
		NewVertexValue: NewDouble,
		NewEdgeValue:   NewFloat,
		NewMessage:     NewDouble,
	}
}

func TestVertexCodecRoundTrip(t *testing.T) {
	c := testCodec()
	val := Double(2.5)
	w1, w2 := Float(1.5), Float(0.25)
	v := &Vertex{
		ID:     42,
		Halted: true,
		Value:  &val,
		Edges: []Edge{
			{Dest: 7, Value: &w1},
			{Dest: 9, Value: &w2},
		},
	}
	got, err := c.DecodeVertex(42, c.EncodeVertex(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || !got.Halted {
		t.Fatalf("header: %+v", got)
	}
	if *got.Value.(*Double) != 2.5 {
		t.Fatalf("value: %v", got.Value)
	}
	if len(got.Edges) != 2 || got.Edges[0].Dest != 7 || *got.Edges[1].Value.(*Float) != 0.25 {
		t.Fatalf("edges: %+v", got.Edges)
	}
}

func TestVertexCodecQuick(t *testing.T) {
	c := testCodec()
	f := func(id uint64, halted bool, value float64, dests []uint64) bool {
		val := Double(value)
		v := &Vertex{ID: VertexID(id), Halted: halted, Value: &val}
		for _, d := range dests {
			w := Float(float32(d % 100))
			v.AddEdge(VertexID(d), &w)
		}
		got, err := c.DecodeVertex(VertexID(id), c.EncodeVertex(v))
		if err != nil {
			return false
		}
		if got.Halted != halted || len(got.Edges) != len(dests) {
			return false
		}
		gv := float64(*got.Value.(*Double))
		if gv != value && !(math.IsNaN(gv) && math.IsNaN(value)) {
			return false
		}
		for i, d := range dests {
			if uint64(got.Edges[i].Dest) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeVertexCorruptInputs(t *testing.T) {
	c := testCodec()
	cases := [][]byte{
		nil,
		{1},
		{0, 255, 255, 255, 255},           // absurd value length
		{0, 0, 0, 0, 0, 9, 0, 0, 0, 1, 2}, // edge count overruns
		{0, 4, 0, 0, 0, 1, 2},             // value overruns
	}
	for i, data := range cases {
		if _, err := c.DecodeVertex(1, data); err == nil {
			t.Fatalf("case %d: expected decode error", i)
		}
	}
}

func TestMsgListRoundTripAndAppend(t *testing.T) {
	c := testCodec()
	a, b := Double(1), Double(2)
	la := EncodeMsgList(&a)
	lb := EncodeMsgList(&b)
	merged := AppendMsgLists(la, lb)
	got, err := c.DecodeMsgList(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || *got[0].(*Double) != 1 || *got[1].(*Double) != 2 {
		t.Fatalf("merged: %v", got)
	}
	// Empty list.
	empty := EncodeMsgList()
	got, err = c.DecodeMsgList(empty)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: %v %v", got, err)
	}
	// nil payload decodes as no messages.
	got, err = c.DecodeMsgList(nil)
	if err != nil || got != nil {
		t.Fatalf("nil: %v %v", got, err)
	}
}

// The reusing forms: AppendMsgList encodes into the buffer it is given,
// and DecodeMsgListInto decodes into the Values it is given, whether the
// new list is longer or shorter than the last.
func TestMsgListReuse(t *testing.T) {
	c := testCodec()
	a, b, d := Double(1), Double(2), Double(3)
	buf := make([]byte, 0, 64)
	three := AppendMsgList(buf, &a, &b, &d)
	if &three[0] != &buf[:1][0] {
		t.Fatal("AppendMsgList left a buffer with room unused")
	}
	if want := EncodeMsgList(&a, &b, &d); !bytes.Equal(three, want) {
		t.Fatalf("AppendMsgList encodes %x, EncodeMsgList %x", three, want)
	}
	vals, err := c.DecodeMsgListInto(nil, three)
	if err != nil || len(vals) != 3 {
		t.Fatalf("three: %v %v", vals, err)
	}
	kept := vals[0]
	vals, err = c.DecodeMsgListInto(vals, EncodeMsgList(&d))
	if err != nil || len(vals) != 1 || *vals[0].(*Double) != 3 {
		t.Fatalf("one after three: %v %v", vals, err)
	}
	if vals[0] != kept {
		t.Fatal("DecodeMsgListInto made a Value where it had one")
	}
	vals, err = c.DecodeMsgListInto(vals, three)
	if err != nil || len(vals) != 3 || *vals[0].(*Double) != 1 || *vals[2].(*Double) != 3 {
		t.Fatalf("three after one: %v %v", vals, err)
	}
}

func TestVertexEdgeOps(t *testing.T) {
	v := &Vertex{ID: 1}
	v.AddEdge(2, nil)
	v.AddEdge(3, nil)
	v.AddEdge(2, nil)
	if !v.RemoveEdge(2) || len(v.Edges) != 1 || v.Edges[0].Dest != 3 {
		t.Fatalf("edges after remove: %+v", v.Edges)
	}
	if v.RemoveEdge(99) {
		t.Fatal("removing absent edge should report false")
	}
	v.VoteToHalt()
	if !v.Halted {
		t.Fatal("vote to halt")
	}
	v.Activate()
	if v.Halted {
		t.Fatal("activate")
	}
}

func TestParseVertexLine(t *testing.T) {
	v, err := ParseVertexLine("5\t7:1.5 9 11:0.25", true)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 5 || len(v.Edges) != 3 {
		t.Fatalf("%+v", v)
	}
	if *v.Edges[0].Value.(*Float) != 1.5 {
		t.Fatalf("weight: %v", v.Edges[0].Value)
	}
	if v.Edges[1].Value != nil {
		t.Fatal("unweighted edge should have nil value")
	}
	// Unweighted mode ignores weights.
	v, err = ParseVertexLine("5 7:1.5", false)
	if err != nil || v.Edges[0].Value != nil {
		t.Fatalf("%+v %v", v, err)
	}
	// Errors.
	for _, bad := range []string{"", "x 2", "1 y", "1 2:zz"} {
		if _, err := ParseVertexLine(bad, true); err == nil {
			t.Fatalf("line %q should fail", bad)
		}
	}
}

func TestFormatVertexLineRoundTrip(t *testing.T) {
	val := Double(0.5)
	w := Float(2)
	v := &Vertex{ID: 3, Value: &val, Edges: []Edge{{Dest: 8, Value: &w}, {Dest: 9}}}
	line := FormatVertexLine(v)
	if !strings.HasPrefix(line, "3\t0.5\t") {
		t.Fatalf("line: %q", line)
	}
	if !strings.Contains(line, "8:2") || !strings.Contains(line, "9") {
		t.Fatalf("line: %q", line)
	}
}

func TestValueString(t *testing.T) {
	d := Double(1.5)
	i := Int64(-3)
	bo := Bool(true)
	by := Bytes{0xab}
	l := VIDList{1, 2}
	cases := map[Value]string{
		&d: "1.5", &i: "-3", &bo: "true", &by: "ab", &l: "1,2", nil: "",
	}
	for v, want := range cases {
		if got := ValueString(v); got != want {
			t.Fatalf("ValueString(%v) = %q want %q", v, got, want)
		}
	}
}

func TestJobValidate(t *testing.T) {
	good := &Job{
		Name:    "j",
		Program: ProgramFunc(func(Context, *Vertex, []Value) error { return nil }),
		Codec:   Codec{NewVertexValue: NewDouble, NewMessage: NewDouble},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []*Job{
		{},
		{Name: "x"},
		{Name: "x", Program: good.Program},
		{Name: "x", Program: good.Program, Codec: Codec{NewVertexValue: NewDouble}},
	}
	for i, j := range bads {
		if err := j.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestDefaultResolver(t *testing.T) {
	r := DefaultResolver{}
	existing := &Vertex{ID: 1}
	add1, add2 := &Vertex{ID: 1}, &Vertex{ID: 1}
	if got := r.Resolve(1, existing, nil, true); got != nil {
		t.Fatal("removal should delete")
	}
	if got := r.Resolve(1, existing, []*Vertex{add1, add2}, false); got != existing {
		t.Fatal("addition over a surviving vertex should merge into it")
	}
	if got := r.Resolve(1, existing, []*Vertex{add1}, true); got != add1 {
		t.Fatal("deletion then insertion should keep the insertion")
	}
	if got := r.Resolve(1, existing, nil, false); got != existing {
		t.Fatal("no mutation should keep existing")
	}
}

func TestHintStrings(t *testing.T) {
	// A slice, not a map keyed by the value under test: two hints that
	// print the same wrong spelling would collapse into one map key.
	for _, c := range []struct{ got, want string }{
		{FullOuterJoin.String(), "fullouter"},
		{LeftOuterJoin.String(), "leftouter"},
		{AutoJoin.String(), "auto"},
		{SortGroupBy.String(), "sort"},
		{HashSortGroupBy.String(), "hashsort"},
		{UnmergeConnector.String(), "unmerge"},
		{MergeConnector.String(), "merge"},
	} {
		if c.got != c.want {
			t.Errorf("hint string %q want %q", c.got, c.want)
		}
	}
}
