package main

import (
	"fmt"
	"net/http"
	"sync"

	"pregelix/internal/delta"
)

// deltaTracker is one job's streaming-ingest state, shared by both
// serve modes: the durable mutation journal, the currently sealed
// (queryable) version, and a serialized background refresher. Batches
// are acknowledged as soon as they are journaled; the refresher drains
// everything journaled past the applied marker into one delta run per
// round, so bursts coalesce and queries keep serving the old version
// until each run seals.
type deltaTracker struct {
	journal *delta.Journal
	// refresh runs one delta refresh: clone fromVersion, apply muts, run
	// delta supersteps, seal as name. It is the backend's refresh, which
	// queues at the same gate as the engine's jobs.
	refresh func(fromVersion, name string, seq uint64, muts []delta.Mutation) error
	// onSeal, when set, is notified after each successful seal with the
	// new version name. Cluster mode persists it to the controller's job
	// registry so a restarted controller resumes the version chain.
	onSeal func(version string, seq uint64)

	mu         sync.Mutex
	version    string // currently sealed, queryable version
	applied    uint64 // last journal sequence folded into version
	refreshing bool
	dirty      bool // batches arrived while a refresh was in flight
	lastErr    string
}

func newDeltaTracker(store delta.Store, prefix, version string,
	refresh func(fromVersion, name string, seq uint64, muts []delta.Mutation) error) (*deltaTracker, error) {
	j, err := delta.OpenJournal(store, prefix)
	if err != nil {
		return nil, err
	}
	applied, err := j.Applied()
	if err != nil {
		return nil, err
	}
	return &deltaTracker{journal: j, refresh: refresh, version: version, applied: applied}, nil
}

// currentVersion is the version name queries should serve from.
func (d *deltaTracker) currentVersion() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.version
}

// status reports the ingest fields of the job view.
func (d *deltaTracker) status() (version string, applied uint64, refreshing bool, lastErr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.version, d.applied, d.refreshing, d.lastErr
}

// ingest journals one parsed batch and kicks the refresher. The batch
// is on stable storage when ingest returns its sequence number.
func (d *deltaTracker) ingest(muts []delta.Mutation) (uint64, error) {
	seq, err := d.journal.Append(muts)
	if err != nil {
		return 0, err
	}
	d.kick()
	return seq, nil
}

// kick starts the background refresher unless one is already running;
// a running refresher is flagged to re-drain before exiting, so no
// journaled batch is left behind.
func (d *deltaTracker) kick() {
	d.mu.Lock()
	if d.refreshing {
		d.dirty = true
		d.mu.Unlock()
		return
	}
	d.refreshing = true
	d.dirty = false
	d.mu.Unlock()
	go d.drain()
}

func (d *deltaTracker) drain() {
	for {
		d.drainOnce()
		d.mu.Lock()
		if !d.dirty {
			d.refreshing = false
			d.mu.Unlock()
			return
		}
		d.dirty = false
		d.mu.Unlock()
	}
}

// drainOnce folds every journaled batch past the applied marker into
// delta runs (one run per pass, re-reading the journal between passes)
// until the journal is fully applied or a refresh fails.
func (d *deltaTracker) drainOnce() {
	for {
		d.mu.Lock()
		applied, from := d.applied, d.version
		d.mu.Unlock()
		batches, err := d.journal.Replay(applied)
		if err != nil {
			d.fail(err)
			return
		}
		if len(batches) == 0 {
			return
		}
		var muts []delta.Mutation
		seq := applied
		for _, b := range batches {
			muts = append(muts, b.Muts...)
			seq = b.Seq
		}
		name := fmt.Sprintf("%s@d%d", from, seq)
		if err := d.refresh(from, name, seq, muts); err != nil {
			d.fail(err)
			return
		}
		// Swap the served version before persisting the marker: a query
		// racing the seal must never see the retired version name.
		d.mu.Lock()
		d.applied, d.version, d.lastErr = seq, name, ""
		d.mu.Unlock()
		if err := d.journal.SetApplied(seq); err != nil {
			d.fail(err)
			return
		}
		if d.onSeal != nil {
			d.onSeal(name, seq)
		}
	}
}

func (d *deltaTracker) fail(err error) {
	d.mu.Lock()
	d.lastErr = err.Error()
	d.mu.Unlock()
}

// serveMutations is the shared POST /jobs/{id}/mutations handler body:
// parse-or-400, journal-or-500, 202 with the assigned sequence.
func serveMutations(w http.ResponseWriter, r *http.Request, d *deltaTracker) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST /jobs/{id}/mutations")
		return
	}
	muts, err := delta.ParseBatch(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	seq, err := d.ingest(muts)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]uint64{"seq": seq})
}
