package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a workload, a job, a phase of a job, a
// layer drive, or one call into a layer. Start and End are offsets from
// the tracer's epoch.
type span struct {
	ID       int
	Parent   int // 0 = root
	Name     string
	Workload string
	Start    time.Duration
	End      time.Duration
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so the timed run calls the same code with no tracer.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval is already known: job phases are
// synthesised after the job from the durations JobStats reports.
func (t *tracer) add(name string, parent int, start, end time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, Start: start, End: end})
	return len(t.spans)
}

// now is the current offset from the epoch, for synthesised spans.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		at := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < at {
				lo = at
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// lanes assigns each span a thread id for the trace viewer: a span sits
// on its parent's lane unless it overlaps a sibling already there
// (serve_mix's two clients run side by side), in which case it and its
// descendants get a lane of their own.
func lanes(spans []span) map[int]int {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	lane := make(map[int]int, len(spans))
	next := 1
	var place func(parent, parentLane int)
	place = func(parent, parentLane int) {
		kids := children[parent]
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		busyUntil := map[int]time.Duration{} // lane -> end of the last sibling placed on it
		order := []int{parentLane}
		for _, k := range kids {
			chosen := 0
			for _, l := range order {
				if busyUntil[l] <= k.Start {
					chosen = l
					break
				}
			}
			if chosen == 0 {
				next++
				chosen = next
				order = append(order, chosen)
			}
			busyUntil[chosen] = k.End
			lane[k.ID] = chosen
			place(k.ID, chosen)
		}
	}
	place(0, 1)
	return lane
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every closed span as Chrome-trace JSON.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self, lane := selfTimes(spans), lanes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: lane[s.ID],
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "workload": s.Workload,
				"self_us": float64(self[s.ID]) / float64(time.Microsecond),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
