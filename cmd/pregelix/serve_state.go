package main

// Controller durability. With -state-dir set (cluster mode only) the
// controller keeps its soft state in the same shared directory the
// coordinator's hard state lives in, so a restarted (or standby
// takeover) `pregelix serve` process resumes where the dead one
// stopped:
//
//	<state-dir>/jobs.json   the job table: id, name, spec, state,
//	                        latest sealed delta version
//	<state-dir>/files/      uploaded inputs and captured outputs
//	                        (clusterBackend, backend.go)
//
// (The coordinator itself owns <state-dir>/ckpt/, catalog.json and
// cc.lease — see internal/core/coordinator_state.go and lease.go.)
//
// Restore order matters: loadState runs before the HTTP listener opens
// so pollers never see a half-loaded table, while resumeRestored —
// which re-submits in-flight jobs with resume set and re-opens delta
// trackers with unapplied journal batches — waits in the background for
// the workers to rejoin first.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// persistedJob is one table row: everything needed to re-run, resume or
// re-serve the job after a controller restart. Live counters (stats,
// progress) are not persisted — a resumed run regenerates them, and a
// done job's sealed result survives on the workers.
type persistedJob struct {
	ID           int64           `json:"id"`
	Name         string          `json:"name"`
	Spec         json.RawMessage `json:"spec"`
	Req          jobRequest      `json:"req"`
	State        string          `json:"state"`
	Error        string          `json:"error,omitempty"`
	DeltaVersion string          `json:"deltaVersion,omitempty"`
}

type persistedRegistry struct {
	NextID int64          `json:"nextId"`
	Jobs   []persistedJob `json:"jobs"`
}

// writeFileAtomic replaces path with data through a rename, so a crash
// mid-write leaves the previous contents. Best-effort: callers treat a
// failed write as a lost update, not an error.
func writeFileAtomic(path string, data []byte) {
	tmp := path + ".tmp"
	if os.WriteFile(tmp, data, 0o644) == nil {
		os.Rename(tmp, path)
	}
}

// saveState snapshots the job table to the state dir. Called on every
// table transition (submission, completion and the eviction it may
// bring, delta seal); best-effort, like the coordinator's catalog — a
// lost write costs a re-run of the affected job after the next restart,
// not correctness. A server that has handed its jobs off (handOff)
// writes nothing more.
func (s *server) saveState() {
	if s.stateDir == "" {
		return
	}
	// One writer at a time, snapshot included: a job's completion and the
	// next submission save concurrently, and the later snapshot must be
	// the one left on disk.
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	if s.handedOff {
		return
	}
	s.mu.Lock()
	reg := persistedRegistry{NextID: s.nextID, Jobs: make([]persistedJob, 0, len(s.order))}
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		reg.Jobs = append(reg.Jobs, persistedJob{
			ID:           j.id,
			Name:         j.name,
			Spec:         j.spec,
			Req:          j.req,
			State:        j.state,
			Error:        j.errText,
			DeltaVersion: j.deltaVersion,
		})
		j.mu.Unlock()
	}
	s.mu.Unlock()
	if data, err := json.Marshal(reg); err == nil {
		writeFileAtomic(filepath.Join(s.stateDir, "jobs.json"), data)
	}
}

// loadState restores the job table from the state dir, returning the
// jobs that were still in flight when the previous controller died.
// Runs single-threaded before the HTTP server starts, so it touches the
// table without locks. In-flight jobs come back as "queued" with a live
// cancel context; resumeRestored re-submits them once the cluster
// assembles.
func (s *server) loadState() []*job {
	if s.stateDir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(s.stateDir, "jobs.json"))
	if err != nil {
		return nil
	}
	var reg persistedRegistry
	if json.Unmarshal(data, &reg) != nil {
		return nil
	}
	s.nextID = reg.NextID
	var resume []*job
	for _, pj := range reg.Jobs {
		j := &job{
			id:           pj.ID,
			name:         pj.Name,
			spec:         pj.Spec,
			req:          pj.Req,
			cancel:       func() {},
			state:        pj.State,
			errText:      pj.Error,
			deltaVersion: pj.DeltaVersion,
		}
		if pj.State == "queued" || pj.State == "running" {
			// In flight when the old controller died: re-queue for a
			// resumed run (from the last checkpoint manifest when the job
			// checkpoints, from scratch otherwise).
			j.state, j.errText = "queued", ""
			j.ctx, j.cancel = context.WithCancel(s.runs)
			resume = append(resume, j)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if pj.ID > s.nextID {
			s.nextID = pj.ID
		}
	}
	return resume
}

// resumeRestored finishes the restore once the cluster has reassembled:
// it re-submits the jobs the dead controller left in flight (resume set,
// so a checkpointed run continues from its last committed manifest) and
// re-opens delta trackers whose journals may hold unapplied batches.
func (s *server) resumeRestored(resume []*job) {
	if err := s.be.WaitReady(s.runs); err != nil {
		return
	}
	// All tickets at once, in table order: restored jobs re-run in their
	// original submission order, ahead of anything submitted since.
	failed := map[*job]error{}
	s.mu.Lock()
	for _, j := range resume {
		req := j.req
		pj, err := buildServeJob(&req)
		if err != nil {
			failed[j] = err
			continue
		}
		// Refused only once the server is closing: the job then stays
		// queued in the registry, for the next controller to resume.
		_ = s.submitLocked(j, pj, true)
	}
	s.mu.Unlock()
	for j, err := range failed {
		s.finish(j, nil, err)
	}
	// Re-open the ingest tracker of every done job that has a delta
	// journal, then kick each so batches journaled but not yet applied
	// when the old controller died get folded in without waiting for
	// the next mutation to arrive.
	store := s.be.DeltaStore()
	for _, j := range s.snapshot() {
		j.mu.Lock()
		state, sealed := j.state, j.deltaVersion != ""
		j.mu.Unlock()
		if state != "done" {
			continue
		}
		if !sealed {
			names, err := store.List(fmt.Sprintf("/delta/j%d/", j.id))
			if err != nil || len(names) == 0 {
				continue
			}
		}
		if d, err := s.trackerFor(j); err == nil {
			d.kick()
		}
	}
}
