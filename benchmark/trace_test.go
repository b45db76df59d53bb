package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100 * ms},       // root
		{ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},  // child
		{ID: 3, Parent: 1, Start: 30 * ms, End: 60 * ms},  // overlaps child 2 by 10ms
		{ID: 4, Parent: 1, Start: 90 * ms, End: 120 * ms}, // runs past the parent's end
		{ID: 5, Parent: 2, Start: 15 * ms, End: 20 * ms},  // grandchild: not the root's child
	}
	self := selfTimes(spans)
	// Root: 100 - (10..60 = 50) - (90..100 = 10) = 40.
	if self[1] != 40*ms {
		t.Errorf("root self time = %v, want 40ms", self[1])
	}
	if self[2] != 25*ms {
		t.Errorf("span 2 self time = %v, want 25ms", self[2])
	}
	if self[3] != 30*ms || self[5] != 5*ms {
		t.Errorf("leaf self times = %v, %v", self[3], self[5])
	}
}

func TestLanesSeparateOverlappingSiblings(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 0, End: 50 * ms},       // client 0
		{ID: 3, Parent: 1, Start: 1 * ms, End: 60 * ms},  // client 1, beside client 0
		{ID: 4, Parent: 3, Start: 2 * ms, End: 3 * ms},   // client 1's call
		{ID: 5, Parent: 1, Start: 70 * ms, End: 80 * ms}, // after both: back on the parent's lane
	}
	lane := lanes(spans)
	if lane[1] != 1 || lane[2] != 1 || lane[5] != 1 {
		t.Errorf("sequential spans left the parent's lane: %v", lane)
	}
	if lane[3] == lane[2] {
		t.Errorf("overlapping siblings share lane %d", lane[3])
	}
	if lane[4] != lane[3] {
		t.Errorf("a child left its parent's lane: %v", lane)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id)
	tr.add("y", id, 0, time.Second)
	if id != 0 || tr.now() != 0 {
		t.Errorf("nil tracer returned id %d", id)
	}
}

func TestChromeTraceLoads(t *testing.T) {
	tr := newTracer("pr_fit")
	root := tr.begin("workload:pr_fit", 0)
	child := tr.begin("drive:tuple", root)
	tr.end(child)
	tr.add("superstep 1 (full-outer-join)", root, 0, 5*time.Millisecond)
	open := tr.begin("never closed", root)
	_ = open
	tr.end(root)

	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3 (the unclosed span is dropped)", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Ts == nil || e.Dur == nil || *e.Dur < 0 {
			t.Errorf("event %q is not a complete event: %+v", e.Name, e)
		}
		if e.Args["workload"] != "pr_fit" {
			t.Errorf("event %q carries workload %v", e.Name, e.Args["workload"])
		}
		if _, ok := e.Args["parent"]; !ok {
			t.Errorf("event %q has no parent", e.Name)
		}
	}
}
