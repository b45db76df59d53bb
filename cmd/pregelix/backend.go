package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"pregelix/internal/core"
	"pregelix/internal/delta"
	"pregelix/pregel"
)

// backend is the engine behind the server: it stores files, runs jobs
// and delta refreshes, and reads sealed results. There are two — the
// single-process runtime (localBackend) and the coordinator of a worker
// cluster (clusterBackend, which embeds *core.Coordinator, so the
// exported methods below are the coordinator's own). Each hands the
// server its core.Gate; the server takes every job's and refresh's
// ticket there, waits, and only then asks the engine to run it. What
// only one engine can do answers as absent on the other: scale returns
// nil, LatestVersion finds nothing.
type backend interface {
	// health is nil once the engine can run jobs; WaitReady blocks
	// until then.
	health() error
	WaitReady(ctx context.Context) error

	// putFile and getFile move graph inputs and job outputs; hasFile
	// reports whether a path holds a file.
	putFile(path string, body io.Reader) error
	getFile(path string) ([]byte, error)
	hasFile(path string) bool

	// gate is the engine's admission queue, one per engine.
	gate() *core.Gate
	// run runs one admitted job, named pj.Name, to its end under the
	// operator-memory carve opMem. resume continues a restored job from
	// its last committed checkpoint.
	run(j *job, pj *pregel.Job, opMem int64, resume bool) (*core.JobStats, error)
	// refresh runs one admitted delta refresh to its seal: clone
	// fromVersion, apply muts, run delta supersteps, seal as pj.Name.
	refresh(ctx context.Context, spec []byte, pj *pregel.Job, fromVersion string, muts []delta.Mutation, opMem int64) error

	// The query tier over one sealed version.
	QueryVertex(ctx context.Context, version string, vid uint64) (core.VertexQueryResult, error)
	QueryTopK(ctx context.Context, version string, k int) ([]core.TopKEntry, error)
	QueryKHop(ctx context.Context, version string, source uint64, hops int) (*core.KHopResult, error)
	// DeltaStore is where mutation journals live. LatestVersion names
	// the newest sealed version of a job the engine itself remembers
	// from before a restart.
	DeltaStore() delta.Store
	LatestVersion(job string) (string, bool)

	// engineStats fills the engine's section of GET /stats.
	engineStats(v *statsView)
	// scale is the GET /scale payload, nil when membership is fixed;
	// Drain retires one worker.
	scale() *scaleView
	Drain(addr string) error
}

// localBackend serves from the single-process runtime: files live in
// its DFS, and its gate carves the simulated machines' operator memory
// among the jobs and refreshes it admits.
type localBackend struct {
	rt *core.Runtime
	g  *core.Gate
}

func newLocalBackend(rt *core.Runtime, slots int) localBackend {
	return localBackend{rt: rt, g: core.NewGate(rt.Cluster, slots)}
}

func (b localBackend) health() error                   { return nil }
func (b localBackend) WaitReady(context.Context) error { return nil }

func (b localBackend) putFile(path string, body io.Reader) error {
	w, err := b.rt.DFS.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, body); err != nil {
		return err
	}
	return w.Close()
}

func (b localBackend) getFile(path string) ([]byte, error) { return b.rt.DFS.ReadFile(path) }

func (b localBackend) hasFile(path string) bool { return b.rt.DFS.Exists(path) }

func (b localBackend) gate() *core.Gate { return b.g }

func (b localBackend) run(j *job, pj *pregel.Job, opMem int64, _ bool) (*core.JobStats, error) {
	return b.rt.RunAdmitted(j.ctx, pj, opMem)
}

func (b localBackend) refresh(ctx context.Context, _ []byte, pj *pregel.Job, fromVersion string, muts []delta.Mutation, opMem int64) error {
	_, err := b.rt.DeltaRefresh(ctx, pj, fromVersion, muts, opMem)
	return err
}

func (b localBackend) QueryVertex(ctx context.Context, version string, vid uint64) (core.VertexQueryResult, error) {
	out, err := b.rt.Queries().Point(version, []uint64{vid})
	if err != nil {
		return core.VertexQueryResult{}, err
	}
	return out[0], nil
}

func (b localBackend) QueryTopK(ctx context.Context, version string, k int) ([]core.TopKEntry, error) {
	return b.rt.Queries().TopK(version, k)
}

func (b localBackend) QueryKHop(ctx context.Context, version string, source uint64, hops int) (*core.KHopResult, error) {
	return b.rt.Queries().KHop(version, source, hops)
}

func (b localBackend) DeltaStore() delta.Store { return core.DFSStore(b.rt.DFS) }

func (b localBackend) LatestVersion(string) (string, bool) { return "", false }

func (b localBackend) engineStats(v *statsView) {
	st, queued, running := b.g.Stats()
	v.localStats = &localStats{
		Scheduler: st,
		Queued:    queued,
		Running:   running,
		Cluster:   b.rt.CollectStats(),
	}
}

func (b localBackend) scale() *scaleView { return nil }

func (b localBackend) Drain(string) error { return errors.New("no workers to drain") }

// clusterBackend serves from a cluster of worker processes. Uploaded
// files live in the controller's memory until a job ships them to the
// workers, and job outputs land back there for download; with a state
// dir both are also kept on disk, one file per path (URL-escaped names)
// under <state-dir>/files/, for a restarted controller to reload.
type clusterBackend struct {
	*core.Coordinator
	stateDir string
	// g admits one job or refresh at a time: the coordinator drives a
	// single run across the whole cluster (clusterSlots).
	g *core.Gate

	mu    sync.Mutex
	files map[string][]byte
}

// clusterSlots is what remains single-job about the cluster: the
// coordinator quiesces one run's boundary for a scale-out, drain, split
// or relief, and nothing yet quiesces several (ROADMAP item 7).
const clusterSlots = 1

func newClusterBackend(coord *core.Coordinator, stateDir string) *clusterBackend {
	b := &clusterBackend{
		Coordinator: coord,
		stateDir:    stateDir,
		g:           core.NewGate(nil, clusterSlots),
		files:       make(map[string][]byte),
	}
	if stateDir == "" {
		return b
	}
	dir := filepath.Join(stateDir, "files")
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		path, err := url.PathUnescape(e.Name())
		if err != nil {
			continue
		}
		if data, err := os.ReadFile(filepath.Join(dir, e.Name())); err == nil {
			b.files[path] = data
		}
	}
	return b
}

func (b *clusterBackend) gate() *core.Gate { return b.g }

func (b *clusterBackend) health() error {
	if !b.Ready() {
		return errors.New("waiting for workers")
	}
	if err := b.Err(); err != nil {
		return fmt.Errorf("cluster down: %v", err)
	}
	return nil
}

func (b *clusterBackend) putFile(path string, body io.Reader) error {
	data, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	b.storeFile(path, data)
	return nil
}

// storeFile keeps one uploaded or captured file. The disk copy is
// best-effort, like the table's: a lost write costs a re-upload after
// the next restart, not correctness.
func (b *clusterBackend) storeFile(path string, data []byte) {
	b.mu.Lock()
	b.files[path] = data
	b.mu.Unlock()
	if b.stateDir == "" {
		return
	}
	dir := filepath.Join(b.stateDir, "files")
	if os.MkdirAll(dir, 0o755) == nil {
		writeFileAtomic(filepath.Join(dir, url.PathEscape(path)), data)
	}
}

func (b *clusterBackend) getFile(path string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.files[path]
	if !ok {
		return nil, fmt.Errorf("no file %s", path)
	}
	return data, nil
}

func (b *clusterBackend) hasFile(path string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.files[path]
	return ok
}

func (b *clusterBackend) run(j *job, pj *pregel.Job, _ int64, resume bool) (*core.JobStats, error) {
	input, err := b.getFile(j.req.Input)
	if err != nil {
		return nil, err
	}
	stats, output, err := b.RunJob(j.ctx, core.DistSubmission{
		Name:       pj.Name,
		Spec:       j.spec,
		Job:        pj,
		InputPath:  j.req.Input,
		InputData:  input,
		WantOutput: j.req.Output != "",
		Progress:   j.progress,
		Resume:     resume,
	})
	if err == nil && j.req.Output != "" {
		b.storeFile(j.req.Output, output)
	}
	return stats, err
}

func (b *clusterBackend) refresh(ctx context.Context, spec []byte, pj *pregel.Job, fromVersion string, muts []delta.Mutation, _ int64) error {
	_, err := b.DeltaRefresh(ctx, core.DeltaSubmission{
		Version: fromVersion,
		Name:    pj.Name,
		Spec:    spec,
		Job:     pj,
		Muts:    muts,
	})
	return err
}

func (b *clusterBackend) engineStats(v *statsView) {
	c := &clusterStats{
		Workers:  b.Workers(),
		Standbys: b.Standbys(),
		Nodes:    []string{},
		Events:   b.Events(),
	}
	for _, id := range b.Nodes() {
		c.Nodes = append(c.Nodes, string(id))
	}
	v.clusterStats = c
}

func (b *clusterBackend) scale() *scaleView {
	v := &scaleView{Workers: b.Topology(), Standbys: b.Standbys(), Events: b.Events()}
	if v.Workers == nil {
		v.Workers = []core.WorkerInfo{}
	}
	return v
}
