package core

// Coordinator side of the delta-refresh protocol: given a sealed result
// version and a drained run of journaled mutations, DeltaRefresh opens
// a delta session on every worker (delta.ingest clones the sealed
// partitions — shipping sealed-partition images wherever the cluster's
// topology moved since the seal — and applies the routed mutations),
// arms the dirty frontier (delta.run), then hands the run to the same
// superstep driver RunJob uses until convergence and seals the refreshed clone
// as the base job's new query version. The sealed source keeps
// answering queries until the very last step: version swap is the
// atomic visibility point.

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pregelix/internal/delta"
	"pregelix/internal/dfs"
	"pregelix/pregel"
)

// dfsStore adapts a DFS into the delta journal's durable byte store.
// Put stages under a .tmp name and renames into place — the rename
// swaps only namespace metadata, so a batch is either fully present or
// invisible (parseBatchName rejects .tmp leftovers by construction).
type dfsStore struct{ fs *dfs.FileSystem }

func (s dfsStore) Put(name string, data []byte) error {
	tmp := name + ".tmp"
	if err := s.fs.WriteFile(tmp, data); err != nil {
		return err
	}
	return s.fs.Rename(tmp, name)
}

func (s dfsStore) Get(name string) ([]byte, error) { return s.fs.ReadFile(name) }

func (s dfsStore) List(prefix string) ([]string, error) { return s.fs.List(prefix), nil }

// DFSStore wraps a dfs file system as a delta journal store (the
// single-process serve mode journals into the job manager's DFS).
func DFSStore(fs *dfs.FileSystem) delta.Store { return dfsStore{fs: fs} }

// DeltaStore returns the journal store backed by the coordinator's
// replicated checkpoint DFS: journaled batches live outside every
// worker process, like checkpoints.
func (c *Coordinator) DeltaStore() delta.Store { return dfsStore{fs: c.ckpt} }

// DeltaSubmission is one delta refresh of a sealed result version.
type DeltaSubmission struct {
	// Version is the sealed source version being refreshed (the exact
	// version string job.end reported, e.g. "pagerank@j1").
	Version string
	// Name is the refreshed clone's new version name. It must share the
	// source's base job name so the seal retires the source (the serve
	// layer uses "<base>@j<id>@d<seq>").
	Name string
	// Spec / Job mirror DistSubmission: the opaque descriptor every
	// worker rebuilds, and the controller's own build for plan decisions.
	Spec json.RawMessage
	Job  *pregel.Job
	// Muts is the drained journal run to apply, in journal order.
	Muts []delta.Mutation
	// Progress, when non-nil, is called after every committed superstep.
	Progress func(superstep int64)
}

// DeltaRefresh runs one delta refresh to completion. On success the
// refreshed clone is sealed as the base job's current query version;
// on failure the session tears down and the sealed source keeps
// serving untouched.
func (c *Coordinator) DeltaRefresh(ctx context.Context, sub DeltaSubmission) (*JobStats, error) {
	if err := c.WaitReady(ctx); err != nil {
		return nil, err
	}
	if err := sub.Job.Validate(); err != nil {
		return nil, err
	}
	if len(sub.Muts) == 0 {
		return nil, fmt.Errorf("core: delta refresh of %s: no mutations", sub.Version)
	}
	c.jobMu.Lock()
	defer c.jobMu.Unlock()

	// Heal between-jobs failures first, exactly like RunJob — but note
	// the sealed source's partitions never migrate: a repair only fixes
	// the topology the delta *session* will run on.
	if err := c.prepareCluster(ctx); err != nil {
		return nil, err
	}

	res, err := c.queryResult(sub.Version)
	if err != nil {
		return nil, err
	}
	if len(res.splits) > 0 {
		// A split-adapted run's delta session would need the two-level
		// split router threaded through mutation routing and the cloned
		// partition table; until then, refresh by re-submission.
		return nil, fmt.Errorf("core: delta refresh of %s: the sealed run committed hot-partition splits; re-submit the job instead", sub.Version)
	}

	run := c.newRun(sub.Name, sub.Spec, sub.Job, sub.Progress)
	stats := run.stats

	// Placement plan: the delta session's partition i lives with the
	// current owner of node i%N; the sealed copy lives wherever job.end
	// sealed it. Where the two disagree — the topology moved since the
	// seal — the sealed holder ships a partition image for the current
	// owner to clone from.
	numParts := res.numParts
	owners, err := c.partitionOwners(numParts)
	if err != nil {
		return nil, fmt.Errorf("core: delta refresh of %s: %w", sub.Version, err)
	}
	members := c.members()
	ingest := make(map[*ccWorker]*deltaIngestMsg, len(members))
	for _, w := range members {
		ingest[w] = &deltaIngestMsg{
			Name: sub.Name, FromVersion: sub.Version, Spec: sub.Spec, RunDir: run.begin.RunDir,
			Muts: make(map[int][]delta.Mutation),
		}
	}
	ship := make(map[*ccWorker]partSendMsg) // sealed holder → partitions to image
	for i, cur := range owners {
		holder := res.owners[i]
		if holder == nil || holder.dead() {
			return nil, fmt.Errorf("core: delta refresh of %s: sealed partition %d is no longer served (worker lost after seal; re-submit the job)", sub.Version, i)
		}
		if holder != cur {
			msg := ship[holder]
			msg.FromVersion, msg.Parts = sub.Version, append(msg.Parts, i)
			ship[holder] = msg
		}
	}
	for p, ms := range delta.Route(sub.Muts, numParts) {
		ingest[owners[p]].Muts[p] = ms
	}
	imgs, err := c.imageParts(ctx, "", ship)
	if err != nil {
		return nil, fmt.Errorf("core: delta refresh of %s: imaging sealed partitions: %w", sub.Version, err)
	}
	for p, pd := range imgs {
		ingest[owners[p]].Ship = append(ingest[owners[p]].Ship, *pd)
	}

	// A refresh that completes seals the clone as the new version; any
	// failure tears the session down and leaves the source serving.
	completed := false
	defer func() {
		endCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.endJobSessions(endCtx, sub.Name, completed)
		c.removeCheckpoints(sub.Name)
	}()

	// Ingest: each worker gets its own mutation slices and shipped images.
	ingestStart := time.Now()
	ingReplies, err := phaseCallTo[deltaIngestReply](ctx, c, members, sub.Name, rpcDeltaIngest,
		func(w *ccWorker) any { return ingest[w] })
	if err != nil {
		return stats, fmt.Errorf("core: delta ingest of %s: %w", sub.Name, err)
	}
	var dirtyTotal int64
	for _, rep := range ingReplies {
		dirtyTotal += rep.Dirty
	}

	// Arm: clear halt flags on the dirty sets, seed the Vid indexes. The
	// armed counters seed the global state at superstep 1, so the driver
	// starts at ss=2 — past both superstep-1 full-activation gates.
	runReps, err := phaseCall[deltaRunReply](ctx, c, sub.Name, rpcDeltaRun, deltaRunMsg{Name: sub.Name})
	if err != nil {
		return stats, fmt.Errorf("core: delta arm of %s: %w", sub.Name, err)
	}
	var parts []partCount
	for _, rep := range runReps {
		parts = append(parts, rep.Parts...)
	}
	run.gs = seedGS(1, parts)
	stats.LoadDuration = time.Since(ingestStart)
	c.cfg.logf("coordinator: %s delta-armed — %d mutations, %d dirty vertices, %d live of %d",
		sub.Name, len(sub.Muts), dirtyTotal, run.gs.LiveVertices, run.gs.NumVertices)

	if err := run.drive(ctx, &clusterPhases{c: c}); err != nil {
		return stats, err
	}
	completed = true
	return stats, nil
}
