package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"pregelix/internal/delta"
	"pregelix/pregel"
)

// JobManager runs many Pregel jobs concurrently against one shared
// simulated cluster: an admission Gate plus what makes a submission a
// tenant. Each submission takes a ticket, gets an execution name and a
// node-local scratch directory of its own, waits its FIFO turn for one
// of the bounded slots, runs under the ticket's operator-memory carve,
// and has its scratch reclaimed when it finishes. One cluster, many
// tenants, no job able to overcommit the shared RAM budget.
type JobManager struct {
	rt   *Runtime
	gate *Gate

	// mu orders Submit's ticket + wg.Add against Close.
	mu sync.Mutex
	wg sync.WaitGroup
}

// JobManagerOptions bounds the manager's admission control.
type JobManagerOptions struct {
	// MaxConcurrentJobs bounds in-flight jobs (default 2).
	MaxConcurrentJobs int
}

// NewJobManager creates a multi-tenant manager over the runtime's
// cluster.
func NewJobManager(rt *Runtime, opts JobManagerOptions) *JobManager {
	return &JobManager{rt: rt, gate: NewGate(rt.Cluster, opts.MaxConcurrentJobs)}
}

// Gate exposes the manager's admission gate (status endpoints, tests).
func (m *JobManager) Gate() *Gate { return m.gate }

// Runtime returns the shared runtime the manager serves.
func (m *JobManager) Runtime() *Runtime { return m.rt }

// JobHandle tracks one submitted job. Wait blocks for completion;
// Cancel aborts the job whether queued or mid-superstep.
type JobHandle struct {
	name     string
	ticket   *Ticket
	cancel   context.CancelFunc
	admitted chan struct{}
	done     chan struct{}

	// stats and err are written before done closes.
	stats *JobStats
	err   error
}

// ID returns the job's 1-based position in submission order.
func (h *JobHandle) ID() int64 { return h.ticket.ID() }

// Name returns the tenant-qualified job name the runtime executed under
// (unique per submission, so concurrent tenants never collide on DFS or
// node-local paths).
func (h *JobHandle) Name() string { return h.name }

// OperatorMem returns the operator-memory carve the job runs under (0
// until it is admitted).
func (h *JobHandle) OperatorMem() int64 { return h.ticket.OperatorMem() }

// Admitted is closed when the job leaves the admission queue and starts
// running. A job canceled while queued never gets there: select on Done
// as well.
func (h *JobHandle) Admitted() <-chan struct{} { return h.admitted }

// Done is closed when the job has ended: finished, failed or canceled.
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Cancel aborts the job by ending its context. A queued job leaves the
// admission queue; a running one is interrupted at the next superstep
// boundary check (the cancellation propagates into every task).
func (h *JobHandle) Cancel() { h.cancel() }

// Wait blocks until the job ends (or ctx expires) and returns its stats
// and error.
func (h *JobHandle) Wait(ctx context.Context) (*JobStats, error) {
	select {
	case <-h.done:
		return h.stats, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Submit enqueues a job for execution and returns immediately. The
// job's Name is qualified with the submission id so concurrent (or
// repeated) submissions of the same job never share DFS global-state
// paths or node-local scratch directories. The finished job's partition
// indexes are sealed into the runtime's query store.
func (m *JobManager) Submit(ctx context.Context, job *pregel.Job) (*JobHandle, error) {
	return m.submit(ctx, job,
		func(id int64) string { return fmt.Sprintf("%s@j%d", job.Name, id) },
		func(ctx context.Context, job *pregel.Job, ten tenancy) (*JobStats, error) {
			ten.retain = true
			stats, _, err := m.rt.run(ctx, job, nil, true, ten)
			return stats, err
		})
}

// SubmitDelta enqueues a delta refresh of the sealed version
// fromVersion under the same admission control, so refreshes queue
// behind — and are resource-isolated from — ordinary submissions. job
// must be the same program the sealed run executed (Name is
// overwritten); seq names the refreshed version "<fromVersion>@d<seq>"
// — callers pass the last journal sequence the drained run covers, so
// version names record exactly how much of the mutation stream each
// seal reflects.
func (m *JobManager) SubmitDelta(ctx context.Context, job *pregel.Job, fromVersion string, seq uint64, muts []delta.Mutation) (*JobHandle, error) {
	return m.submit(ctx, job,
		func(int64) string { return fmt.Sprintf("%s@d%d", fromVersion, seq) },
		func(ctx context.Context, job *pregel.Job, ten tenancy) (*JobStats, error) {
			return m.rt.deltaRefresh(ctx, job, fromVersion, muts, ten)
		})
}

// submit is the one path every unit of work takes: a ticket, the
// execution name derived from its id, and a goroutine that carries the
// work through admission, run and cleanup.
func (m *JobManager) submit(ctx context.Context, job *pregel.Job, name func(id int64) string,
	run func(context.Context, *pregel.Job, tenancy) (*JobStats, error)) (*JobHandle, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	ticket, err := m.gate.Enter()
	if err == nil {
		m.wg.Add(1)
	}
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}

	tenantJob := *job // shallow copy; the runtime never mutates the job
	tenantJob.Name = name(ticket.ID())
	jobCtx, cancel := context.WithCancel(ctx)
	h := &JobHandle{
		name:     tenantJob.Name,
		ticket:   ticket,
		cancel:   cancel,
		admitted: make(chan struct{}),
		done:     make(chan struct{}),
	}
	go m.run(jobCtx, h, &tenantJob, run)
	return h, nil
}

// run carries one submission through admission, execution, release and
// scratch cleanup.
func (m *JobManager) run(ctx context.Context, h *JobHandle, job *pregel.Job,
	run func(context.Context, *pregel.Job, tenancy) (*JobStats, error)) {
	defer m.wg.Done()
	defer close(h.done)
	defer h.cancel()
	if h.err = h.ticket.Wait(ctx); h.err != nil {
		return
	}
	close(h.admitted)

	runDir := filepath.Join("jobs", fmt.Sprintf("j%d", h.ID()))
	h.stats, h.err = run(ctx, job, tenancy{opMem: h.OperatorMem(), runDir: runDir})
	h.ticket.Release(h.err)
	// Reclaim the job's isolated scratch directory on every node — unless
	// the run sealed its indexes into the query tier, in which case the
	// retained version owns the directory and reclaims it when it retires.
	// All other live state (run files) was dropped by the run itself, so
	// this only sweeps stragglers from failure paths.
	if !m.rt.Queries().Retained(job.Name) {
		for _, n := range m.rt.Cluster.Nodes() {
			n.RemoveJobDir(runDir)
		}
	}
}

// Close stops accepting submissions, fails queued jobs, and waits for
// running jobs to drain.
func (m *JobManager) Close() {
	m.mu.Lock()
	m.gate.Close()
	m.mu.Unlock()
	m.wg.Wait()
}
