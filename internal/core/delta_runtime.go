package core

// Single-process side of the delta-refresh subsystem: the Runtime
// clones a sealed version's partitions locally, applies the mutations,
// arms the dirty frontier and hands the run to the ordinary superstep
// driver (with its checkpoint/recovery machinery) until convergence,
// then seals the refreshed clone as the base job's new query version.
// JobManager.SubmitDelta puts that under admission control.

import (
	"context"
	"fmt"
	"time"

	"pregelix/internal/delta"
	"pregelix/pregel"
)

// DeltaRefresh incrementally refreshes the sealed result version
// fromVersion by applying muts (in order) and running delta supersteps
// until convergence. job must be the same program the sealed run
// executed, with job.Name set to the NEW version name — it must share
// the source's base job name, so sealing the refreshed result retires
// the source. The source version keeps serving queries until the seal.
func (r *Runtime) DeltaRefresh(ctx context.Context, job *pregel.Job, fromVersion string, muts []delta.Mutation) (*JobStats, error) {
	return r.deltaRefresh(ctx, job, fromVersion, muts, tenancy{})
}

func (r *Runtime) deltaRefresh(ctx context.Context, job *pregel.Job, fromVersion string, muts []delta.Mutation, ten tenancy) (*JobStats, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	if len(muts) == 0 {
		return nil, fmt.Errorf("core: delta refresh of %s: no mutations", fromVersion)
	}
	src, err := r.queries.acquire(fromVersion)
	if err != nil {
		return nil, err
	}
	defer src.release()
	defer removeJobFiles(r.DFS, job.Name)

	run := newJobRun(job.Name, job)
	rs := r.newRunState(job, r.opts.Exec, ten)
	defer rs.cleanup()

	// Clone, mutate, arm. Superstep 1 makes the first delta superstep run
	// as ss=2, past both superstep-1 full-activation gates, so only the
	// armed dirty set (plus any vertices the sealed run left live)
	// computes.
	ingestStart := time.Now()
	dirty, err := rs.ingestDelta(ctx, src, nil, delta.Route(muts, src.numParts))
	if err == nil {
		err = rs.armDelta(ctx, dirty)
	}
	if err != nil {
		return run.stats, fmt.Errorf("core: delta refresh of %s: %w", fromVersion, err)
	}
	run.gs = seedGS(1, rs.partCounts())
	run.stats.LoadDuration = time.Since(ingestStart)

	if err := run.drive(ctx, &localPhases{rs: rs}); err != nil {
		return run.stats, err
	}
	// Seal the refreshed clone; same base name → the source retires and
	// the base job's queries atomically switch to the new values.
	rs.seal(r.queries)
	return run.stats, nil
}
