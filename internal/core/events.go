package core

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// The coordinator's event log: one typed stream of what the failure
// manager, the rebalancer, the adaptive runtime and the join planner
// did, each entry carrying the measurements the action was decided on,
// so "why did the cluster do that?" is answered from GET /stats alone.

// EventKind names one kind of coordinator action.
type EventKind string

const (
	// Failure handling: a worker declared lost, its nodes adopted by a
	// standby or respread over the survivors, a run rolled back to its
	// last committed checkpoint, and a restarted durable coordinator
	// resuming an interrupted run.
	EventWorkerLost    EventKind = "worker-lost"
	EventReplaced      EventKind = "replaced"
	EventRedistributed EventKind = "redistributed"
	EventRestored      EventKind = "restored"
	EventResumed       EventKind = "resumed"
	// Elasticity: a worker joining with partitions migrated onto it, a
	// graceful drain, and their refusals and failures (a failure leaves
	// the cluster unchanged).
	EventScaleOut       EventKind = "scale-out"
	EventScaleRefused   EventKind = "scale-refused"
	EventScaleFailed    EventKind = "scale-failed"
	EventDrainRequested EventKind = "drain-requested"
	EventDrain          EventKind = "drain"
	EventDrainRefused   EventKind = "drain-refused"
	EventDrainFailed    EventKind = "drain-failed"
	// The adaptive runtime (-adaptive): straggler relief and hot-partition
	// splits; and the join planner's switches, which every run makes.
	EventRelief       EventKind = "relief"
	EventReliefFailed EventKind = "relief-failed"
	EventSplit        EventKind = "split"
	EventSplitFailed  EventKind = "split-failed"
	EventPlanSwitch   EventKind = "plan-switch"
)

// Event is one entry of the coordinator's event log.
type Event struct {
	// Seq numbers events from 1 in the order they were recorded. The log
	// keeps the latest maxEvents, so a first Seq above 1 means older
	// entries were dropped.
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	Kind EventKind `json:"kind"`
	// Job and Superstep place an action taken inside a run: the boundary
	// it fired at, or the checkpoint a run rolled back to.
	Job       string `json:"job,omitempty"`
	Superstep int64  `json:"superstep,omitempty"`
	// Worker is the control-plane address of the worker acted on.
	Worker string `json:"worker,omitempty"`
	// Nodes lists the node IDs lost, adopted, respread or moved.
	Nodes []string `json:"nodes,omitempty"`
	// Partitions counts the partitions whose state moved: migrated as
	// images, or re-hashed into a split's children (0 for a rebalance
	// between jobs, where only ownership moves).
	Partitions int `json:"partitions,omitempty"`
	// Partition is the partition a split re-hashed (or failed to): a
	// pointer, so that a split of partition 0 still reports it.
	Partition *int `json:"partition,omitempty"`
	// Inputs are the measurements the action was decided on, by name:
	// loads against their thresholds, phase times against the median,
	// the counters the join planner weighed.
	Inputs map[string]float64 `json:"inputs,omitempty"`
	// Duration is the wall-clock cost of the action; a committed
	// movement's (scale-out, drain, relief) ends at its commit.
	Duration time.Duration `json:"duration,omitempty"`
	// Detail is a human-readable summary.
	Detail string `json:"detail,omitempty"`
}

// maxEvents bounds the log: a long-lived coordinator keeps its latest
// actions, not every plan switch since it started.
const maxEvents = 1024

// Events returns the event log, oldest first; an empty log is an empty
// slice, not nil, so it encodes as [].
func (c *Coordinator) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event{}, c.events...)
}

// record stamps an event, appends it to the log and writes it to the
// coordinator's log output.
func (c *Coordinator) record(ev Event) {
	c.mu.Lock()
	ev = c.recordLocked(ev)
	c.mu.Unlock()
	c.cfg.logf("coordinator: %s", ev)
}

// recordLocked stamps an event and appends it to the log (caller holds
// c.mu, and writes it to the log output), returning it stamped.
func (c *Coordinator) recordLocked(ev Event) Event {
	ev.Time = time.Now()
	c.eventSeq++
	ev.Seq = c.eventSeq
	if len(c.events) == maxEvents {
		c.events = slices.Delete(c.events, 0, 1)
	}
	c.events = append(c.events, ev)
	return ev
}

// String renders the event as one log line, leaving out empty fields.
func (ev Event) String() string {
	var b strings.Builder
	b.WriteString(string(ev.Kind))
	if ev.Job != "" {
		fmt.Fprintf(&b, " job=%s ss=%d", ev.Job, ev.Superstep)
	}
	if ev.Worker != "" {
		fmt.Fprintf(&b, " worker=%s", ev.Worker)
	}
	if len(ev.Nodes) > 0 {
		fmt.Fprintf(&b, " nodes=%v", ev.Nodes)
	}
	if ev.Partitions > 0 {
		fmt.Fprintf(&b, " partitions=%d", ev.Partitions)
	}
	if len(ev.Inputs) > 0 {
		fmt.Fprintf(&b, " inputs=%v", ev.Inputs)
	}
	if ev.Detail != "" {
		b.WriteString(": " + ev.Detail)
	}
	return b.String()
}
