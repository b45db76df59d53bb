package core

// Worker side of the delta-refresh protocol. A refresh opens an
// ordinary job session under a fresh version name:
//
//	delta.ingest  — open the session, clone every owned partition from
//	                the sealed source version (locally where this worker
//	                holds the sealed index, from shipped partition.send
//	                images where it does not), and apply the routed
//	                mutation batches in journal order, accumulating the
//	                per-partition dirty sets.
//	delta.run     — arm the clones: clear the halt flag on the dirty
//	                records and seed the live-vertex indexes, so the
//	                coordinator's ordinary job.superstep rounds compute
//	                only the dirty frontier.
//
// job.end (Retain) then seals the refreshed clone as the base job's new
// query version; the sealed source serves queries untouched throughout.

import "fmt"

// deltaIngest opens the delta session and builds its mutated clone. The
// dirty sets wait in the session for delta.run.
func (w *distWorker) deltaIngest(msg *deltaIngestMsg) (*deltaIngestReply, error) {
	dj, err := w.beginJob(&jobBeginMsg{Name: msg.Name, Spec: msg.Spec, RunDir: msg.RunDir})
	if err != nil {
		return nil, err
	}
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return nil, err
	}
	defer end()

	// The sealed version stays acquired (query-readable, retirement-safe)
	// while its partitions are imaged; a worker whose every owned
	// partition was shipped need not hold it at all.
	sealed, err := w.queries.acquire(msg.FromVersion)
	if err == nil {
		defer sealed.release()
	}
	if dj.dirty, err = dj.rs.ingestDelta(ctx, sealed, msg.Ship, msg.Muts); err != nil {
		return nil, fmt.Errorf("core: delta ingest %s: %w", msg.Name, err)
	}
	reply := &deltaIngestReply{Parts: dj.rs.partCounts(), Dirty: dj.dirty.total()}
	w.cfg.logf("worker: delta session %s ingested (%d dirty)", msg.Name, reply.Dirty)
	return reply, nil
}

// deltaRun arms the ingested clone for delta supersteps.
func (dj *distJob) deltaRun() (*deltaRunReply, error) {
	if dj.dirty == nil {
		return nil, fmt.Errorf("core: job %s is not a delta session", dj.rs.job.Name)
	}
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return nil, err
	}
	defer end()
	if err := dj.rs.armDelta(ctx, dj.dirty); err != nil {
		return nil, fmt.Errorf("core: delta run %s: %w", dj.rs.job.Name, err)
	}
	return &deltaRunReply{Parts: dj.rs.partCounts(), Dirty: dj.dirty.total()}, nil
}
