package core

// Single-process side of the delta-refresh subsystem: the Runtime
// clones a sealed version's partitions locally, applies the mutations,
// arms the dirty frontier and reuses the ordinary superstep loop (with
// its checkpoint/recovery machinery) until convergence, then seals the
// refreshed clone as the base job's new query version.
// JobManager.SubmitDelta puts that under admission control.

import (
	"context"
	"fmt"
	"time"

	"pregelix/internal/delta"
	"pregelix/internal/tuple"
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

	start := time.Now()
	rs := &runState{
		rt:     r,
		job:    job,
		codec:  &job.Codec,
		opMem:  ten.opMem,
		runDir: ten.runDir,
		exec:   r.opts.Exec,
		stats:  &JobStats{Job: job.Name},
	}
	rs.initParts()
	if len(rs.parts) != src.numParts {
		rs.cleanup()
		return rs.stats, fmt.Errorf("core: delta refresh of %s: cluster has %d partitions, sealed result has %d",
			fromVersion, len(rs.parts), src.numParts)
	}

	// Clone, mutate, arm — partition by partition.
	ingestStart := time.Now()
	routed := delta.Route(muts, src.numParts)
	for _, ps := range rs.parts {
		if err := ctx.Err(); err != nil {
			rs.cleanup()
			return rs.stats, err
		}
		idx := src.parts[ps.idx]
		if idx == nil {
			rs.cleanup()
			return rs.stats, fmt.Errorf("core: delta refresh of %s: partition %d not sealed", fromVersion, ps.idx)
		}
		img, err := sealedPartitionImage(idx, ps.idx, tuple.CompressOff)
		if err != nil {
			rs.cleanup()
			return rs.stats, fmt.Errorf("core: delta refresh of %s: imaging partition %d: %w", fromVersion, ps.idx, err)
		}
		if err := rs.cloneDeltaPartition(ps, &img); err != nil {
			rs.cleanup()
			return rs.stats, fmt.Errorf("core: delta refresh of %s: cloning partition %d: %w", fromVersion, ps.idx, err)
		}
		dirty := make(map[uint64]struct{})
		if err := rs.applyDeltaMutations(ps, routed[ps.idx], dirty); err != nil {
			rs.cleanup()
			return rs.stats, fmt.Errorf("core: delta refresh of %s: applying to partition %d: %w", fromVersion, ps.idx, err)
		}
		if err := rs.armDeltaPartition(ps, dirty); err != nil {
			rs.cleanup()
			return rs.stats, fmt.Errorf("core: delta refresh of %s: arming partition %d: %w", fromVersion, ps.idx, err)
		}
	}
	rs.seedDeltaGS()
	rs.stats.LoadDuration = time.Since(ingestStart)

	// Delta supersteps: the ordinary loop, starting at ss=2 (past both
	// superstep-1 full-activation gates) with checkpoint/recovery intact.
	runStart := time.Now()
	if err := rs.superstepLoop(ctx); err != nil {
		rs.cleanup()
		return rs.stats, err
	}
	rs.stats.RunDuration = time.Since(runStart)
	rs.stats.TotalDuration = time.Since(start)
	rs.stats.FinalState = GlobalStateView{
		Superstep:    rs.gs.Superstep,
		NumVertices:  rs.gs.NumVertices,
		NumEdges:     rs.gs.NumEdges,
		LiveVertices: rs.gs.LiveVertices,
		Aggregate:    rs.gs.Aggregate,
	}
	// Seal the refreshed clone; same base name → the source retires and
	// the base job's queries atomically switch to the new values.
	r.retainResults(rs)
	return rs.stats, nil
}
