package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"pregelix/internal/delta"
	"pregelix/internal/hyracks"
	"pregelix/pregel"
)

// JobManager runs many Pregel jobs concurrently against one shared
// simulated cluster. It sits on top of the hyracks admission scheduler:
// each submission gets a ticket, waits its FIFO turn for one of the
// bounded concurrency slots, runs under a per-job operator-memory carve,
// and keeps its node-local scratch files in an isolated per-job
// directory that is reclaimed when the job finishes. This is the
// multi-tenant serving layer of the reproduction: one cluster, many
// tenants, no job able to overcommit the shared RAM budget.
type JobManager struct {
	rt    *Runtime
	sched *hyracks.JobScheduler

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// JobManagerOptions bounds the manager's admission control.
type JobManagerOptions struct {
	// MaxConcurrentJobs bounds in-flight jobs (default 2).
	MaxConcurrentJobs int
}

// NewJobManager creates a multi-tenant manager over the runtime's
// cluster.
func NewJobManager(rt *Runtime, opts JobManagerOptions) *JobManager {
	return &JobManager{
		rt: rt,
		sched: hyracks.NewJobScheduler(rt.Cluster, hyracks.AdmissionConfig{
			MaxConcurrentJobs: opts.MaxConcurrentJobs,
		}),
	}
}

// Scheduler exposes the underlying admission controller (status
// endpoints, tests).
func (m *JobManager) Scheduler() *hyracks.JobScheduler { return m.sched }

// Runtime returns the shared runtime the manager serves.
func (m *JobManager) Runtime() *Runtime { return m.rt }

// JobHandle tracks one submitted job. Wait blocks for completion;
// Cancel aborts the job whether queued or mid-superstep.
type JobHandle struct {
	id       int64
	name     string
	ticket   *hyracks.JobTicket
	cancel   context.CancelFunc
	admitted chan struct{}
	done     chan struct{}

	mu    sync.Mutex
	stats *JobStats
	err   error
}

// ID returns the scheduler-assigned job id.
func (h *JobHandle) ID() int64 { return h.id }

// Name returns the tenant-qualified job name the runtime executed under
// (unique per submission, so concurrent tenants never collide on DFS or
// node-local paths).
func (h *JobHandle) Name() string { return h.name }

// State returns the job's lifecycle state.
func (h *JobHandle) State() hyracks.JobState { return h.ticket.State() }

// Status returns the scheduler's view of the job.
func (h *JobHandle) Status() hyracks.JobStatus { return h.ticket.Status() }

// Admitted is closed when the job leaves the admission queue and starts
// running. A job canceled while queued never gets there: select on Done
// as well.
func (h *JobHandle) Admitted() <-chan struct{} { return h.admitted }

// Done is closed when the job reaches a terminal state.
func (h *JobHandle) Done() <-chan struct{} { return h.done }

// Cancel aborts the job. Queued jobs leave the admission queue
// immediately; running jobs are interrupted at the next superstep
// boundary check (context cancellation propagates into every task).
func (h *JobHandle) Cancel() {
	h.ticket.Cancel()
	h.cancel()
}

// Wait blocks until the job finishes (or ctx expires) and returns its
// stats and terminal error.
func (h *JobHandle) Wait(ctx context.Context) (*JobStats, error) {
	select {
	case <-h.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats, h.err
}

// Result returns the stats and error of a finished job (nil, nil while
// the job is still queued or running).
func (h *JobHandle) Result() (*JobStats, error) {
	select {
	case <-h.done:
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.stats, h.err
	default:
		return nil, nil
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

// submit is the one path every unit of work takes: a scheduler ticket,
// the execution name derived from its id, and a goroutine that carries
// the work through admission, run and cleanup.
func (m *JobManager) submit(ctx context.Context, job *pregel.Job, name func(id int64) string,
	run func(context.Context, *pregel.Job, tenancy) (*JobStats, error)) (*JobHandle, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, hyracks.ErrSchedulerClosed
	}
	ticket, err := m.sched.Submit(job.Name)
	if err != nil {
		m.mu.Unlock()
		return nil, err
	}

	tenantJob := *job // shallow copy; the runtime never mutates the job
	tenantJob.Name = name(ticket.ID())
	jobCtx, cancel := context.WithCancel(ctx)
	h := &JobHandle{
		id:       ticket.ID(),
		name:     tenantJob.Name,
		ticket:   ticket,
		cancel:   cancel,
		admitted: make(chan struct{}),
		done:     make(chan struct{}),
	}
	m.wg.Add(1)
	m.mu.Unlock()

	go m.run(jobCtx, h, &tenantJob, run)
	return h, nil
}

// run drives one submission through admission, execution, release and
// scratch cleanup.
func (m *JobManager) run(ctx context.Context, h *JobHandle, job *pregel.Job,
	run func(context.Context, *pregel.Job, tenancy) (*JobStats, error)) {
	defer m.wg.Done()
	defer close(h.done)
	defer h.cancel()
	// The handle outlives the scheduler's record of the ticket, so a
	// long-lived server does not accumulate one per job ever run.
	defer m.sched.Forget(h.id)

	// A Cancel on the ticket (scheduler Close) must interrupt the
	// running supersteps.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-h.ticket.Done():
			h.cancel()
		case <-stopWatch:
		}
	}()

	if err := h.ticket.Await(ctx); err != nil {
		h.finish(nil, err)
		return
	}
	close(h.admitted)

	runDir := filepath.Join("jobs", fmt.Sprintf("j%d", h.id))
	stats, err := run(ctx, job, tenancy{opMem: h.ticket.OperatorMem(), runDir: runDir})
	h.ticket.Release(err)
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
	h.finish(stats, err)
}

func (h *JobHandle) finish(stats *JobStats, err error) {
	h.mu.Lock()
	h.stats, h.err = stats, err
	h.mu.Unlock()
}

// Close stops accepting submissions, cancels queued jobs, and waits for
// running jobs to drain.
func (m *JobManager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.sched.Close()
	m.wg.Wait()
}
