package core

import (
	"context"
	"errors"
	"slices"
	"sync"

	"pregelix/internal/hyracks"
)

// Gate is job admission, the one place that answers "may this job run
// now". It mirrors the Hyracks cluster controller's job queue: a
// submission takes its place in a FIFO queue (Enter), at most Slots
// jobs hold a slot at once, and each admitted job is handed an
// operator-memory carve out of the shared per-machine budget, so
// concurrent tenants divide RAM instead of overcommitting it
// (out-of-core operators spill within their carve). The serve tier
// admits through one per engine — over the single-process runtime's
// cluster, or a one-slot one with nothing to carve above the
// coordinator — with one sequence: Enter at submission, then Wait, the
// run (Runtime.RunAdmitted, Runtime.DeltaRefresh or the coordinator's),
// Release. Jobs and delta refreshes queue in the same line. All methods
// are safe for concurrent use.
type Gate struct {
	cluster *hyracks.Cluster // nil: nothing to carve (the machines are remote)
	slots   int

	mu      sync.Mutex
	queue   []*Ticket // FIFO; queue[0] is admitted next
	running int
	closed  bool
	stats   AdmissionStats
}

// AdmissionStats are a gate's lifetime counters.
type AdmissionStats struct {
	Submitted   int64
	Completed   int64
	Failed      int64
	Canceled    int64
	PeakRunning int
	PeakQueued  int
}

// ErrGateClosed fails Enter after Close, and the Wait of every ticket
// Close found queued.
var ErrGateClosed = errors.New("core: job admission closed")

// NewGate creates a gate with the given number of slots (<= 0: 2). The
// carve divides c's operator memory; with a nil c jobs run uncarved.
func NewGate(c *hyracks.Cluster, slots int) *Gate {
	if slots <= 0 {
		slots = 2
	}
	return &Gate{cluster: c, slots: slots}
}

// Slots returns how many jobs the gate lets run at once.
func (g *Gate) Slots() int { return g.slots }

// Ticket is one submission's place at the gate: Wait, run, Release.
type Ticket struct {
	g  *Gate
	id int64
	// ready is closed once the ticket holds a slot (err nil) or Close
	// failed it (err set, before the close).
	ready chan struct{}
	err   error
	// Guarded by g.mu: the carve, and whether the ticket holds a slot
	// it has not released.
	opMem int64
	held  bool
}

// Enter takes the next place in the queue. Tickets are admitted in the
// order Enter returned them.
func (g *Gate) Enter() (*Ticket, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrGateClosed
	}
	g.stats.Submitted++
	t := &Ticket{g: g, id: g.stats.Submitted, ready: make(chan struct{})}
	g.queue = append(g.queue, t)
	g.admitLocked()
	g.stats.PeakQueued = max(g.stats.PeakQueued, len(g.queue))
	return t, nil
}

// admitLocked hands free slots to the head of the queue.
func (g *Gate) admitLocked() {
	for g.running < g.slots && len(g.queue) > 0 {
		t := g.queue[0]
		g.queue = g.queue[1:]
		g.running++
		g.stats.PeakRunning = max(g.stats.PeakRunning, g.running)
		t.held, t.opMem = true, g.carve()
		close(t.ready)
	}
}

// carve is the per-job operator budget at admission time: the smallest
// live machine's operator budget divided evenly among the slots,
// floored at 64 KiB so operators can still buffer a frame before
// spilling.
func (g *Gate) carve() int64 {
	if g.cluster == nil {
		return 0
	}
	var nodeMem int64
	for _, n := range g.cluster.LiveNodes() {
		if nodeMem == 0 || n.OperatorMem < nodeMem {
			nodeMem = n.OperatorMem
		}
	}
	if nodeMem == 0 {
		nodeMem = 64 << 20
	}
	return max(nodeMem/int64(g.slots), 64<<10)
}

// ID is the ticket's 1-based position in submission order.
func (t *Ticket) ID() int64 { return t.id }

// Wait blocks until the ticket is at the head of the queue and a slot
// is free. A nil return means the ticket holds the slot and the caller
// owes a Release. When ctx ends first the ticket leaves the queue — a
// canceled submission — and ctx's error is returned; ErrGateClosed
// means the gate closed with the ticket still queued.
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case <-t.ready:
		return t.err
	case <-ctx.Done():
	}
	g := t.g
	g.mu.Lock()
	if i := slices.Index(g.queue, t); i >= 0 {
		g.queue = slices.Delete(g.queue, i, i+1)
		g.stats.Canceled++
	}
	g.mu.Unlock()
	// A slot granted as ctx ended goes straight back.
	t.Release(ctx.Err())
	return ctx.Err()
}

// OperatorMem is the operator-memory carve the ticket was admitted
// with (0 before admission, and at a gate with nothing to carve).
func (t *Ticket) OperatorMem() int64 {
	t.g.mu.Lock()
	defer t.g.mu.Unlock()
	return t.opMem
}

// Release frees the ticket's slot and counts the outcome: nil is a
// completed job, a context error a canceled one, anything else a failed
// one. It does nothing for a ticket that holds no slot.
func (t *Ticket) Release(err error) {
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if !t.held {
		return
	}
	t.held = false
	g.running--
	switch {
	case err == nil:
		g.stats.Completed++
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		g.stats.Canceled++
	default:
		g.stats.Failed++
	}
	g.admitLocked()
}

// Stats returns the lifetime counters with, as of the same instant, how
// many tickets wait for a slot and how many hold one.
func (g *Gate) Stats() (st AdmissionStats, queued, running int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats, len(g.queue), g.running
}

// Close rejects future submissions and fails every queued ticket.
// Tickets holding a slot are left to finish (their Release still
// works).
func (g *Gate) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	for _, t := range g.queue {
		t.err = ErrGateClosed
		g.stats.Canceled++
		close(t.ready)
	}
	g.queue = nil
}
