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
func (w *distWorker) deltaRun(msg *deltaRunMsg) (*deltaRunReply, error) {
	dj, err := w.job(msg.Name)
	if err != nil {
		return nil, err
	}
	if dj.dirty == nil {
		return nil, fmt.Errorf("core: job %s is not a delta session", msg.Name)
	}
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return nil, err
	}
	defer end()
	if err := dj.rs.armDelta(ctx, dj.dirty); err != nil {
		return nil, fmt.Errorf("core: delta run %s: %w", msg.Name, err)
	}
	return &deltaRunReply{Parts: dj.rs.partCounts(), Dirty: dj.dirty.total()}, nil
}

// sealedPartitionSend snapshots partitions of a *sealed* version for a
// delta refresh on a cluster whose topology moved since the seal: the
// current partition owner clones from these images instead of a local
// sealed index. Unlike the job-session partition.send this reads the
// retained result (there is no open session on the sealed side), and
// the version stays acquired for the scan so a concurrent seal of a
// newer version cannot destroy it mid-image.
func (w *distWorker) sealedPartitionSend(msg *partSendMsg) (*partSendReply, error) {
	r, err := w.queries.acquire(msg.FromVersion)
	if err != nil {
		return nil, err
	}
	defer r.release()
	reply := &partSendReply{Parts: []ckptPartData{}}
	for _, idx := range msg.Parts {
		pidx := r.parts[idx]
		if pidx == nil {
			return nil, fmt.Errorf("core: sealed send %s: partition %d not held here", msg.FromVersion, idx)
		}
		pd, err := sealedPartitionImage(pidx, idx, w.rt.opts.Compress)
		if err != nil {
			return nil, fmt.Errorf("core: sealed send %s partition %d: %w", msg.FromVersion, idx, err)
		}
		reply.Parts = append(reply.Parts, pd)
	}
	return reply, nil
}
