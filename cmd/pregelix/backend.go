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
// single-process runtime under its JobManager (localBackend) and the
// coordinator of a worker cluster (clusterBackend, which embeds
// *core.Coordinator, so the exported methods below are the
// coordinator's own) — and both admit jobs and refreshes through a
// core.Gate. What only one engine can do answers as absent on the
// other: scale returns nil, LatestVersion finds nothing.
type backend interface {
	// health is nil once the engine can run jobs; WaitReady blocks
	// until then.
	health() error
	WaitReady(ctx context.Context) error

	// putFile and getFile move graph inputs and job outputs.
	putFile(path string, body io.Reader) error
	getFile(path string) ([]byte, error)

	// slots is how many jobs the engine's gate lets run at once.
	slots() int
	// admit takes j's place in the engine's run queue, naming it unless
	// it is a restored job that has its name already, and returns the
	// function that runs it there: run blocks until the job ends and
	// calls j.begin when the job leaves the queue. Jobs leave the queue
	// in the order admit was called. resume continues a restored job
	// from its last committed checkpoint. An error wrapping errNoInput
	// rejects the submission itself; any other means the engine takes no
	// more jobs now.
	admit(j *job, pj *pregel.Job, resume bool) (run func() (*core.JobStats, error), err error)
	// refresh runs one delta refresh to its seal, queued like a job:
	// clone fromVersion, apply muts, run delta supersteps, seal as name
	// ("fromVersion@d<seq>").
	refresh(spec []byte, pj *pregel.Job, fromVersion, name string, seq uint64, muts []delta.Mutation) error

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
// its DFS, jobs and refreshes share the JobManager's admission queue.
type localBackend struct{ m *core.JobManager }

func (b localBackend) slots() int { return b.m.Gate().Slots() }

func (b localBackend) health() error                   { return nil }
func (b localBackend) WaitReady(context.Context) error { return nil }

func (b localBackend) putFile(path string, body io.Reader) error {
	w, err := b.m.Runtime().DFS.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(w, body); err != nil {
		return err
	}
	return w.Close()
}

func (b localBackend) getFile(path string) ([]byte, error) {
	return b.m.Runtime().DFS.ReadFile(path)
}

func (b localBackend) admit(j *job, pj *pregel.Job, resume bool) (func() (*core.JobStats, error), error) {
	h, err := b.m.Submit(j.ctx, pj)
	if err != nil {
		return nil, err
	}
	j.name = h.Name()
	return func() (*core.JobStats, error) {
		select {
		case <-h.Admitted():
			j.begin(h.OperatorMem())
		case <-h.Done():
		}
		return h.Wait(context.Background())
	}, nil
}

func (b localBackend) refresh(spec []byte, pj *pregel.Job, fromVersion, name string, seq uint64, muts []delta.Mutation) error {
	h, err := b.m.SubmitDelta(context.Background(), pj, fromVersion, seq, muts)
	if err != nil {
		return err
	}
	_, err = h.Wait(context.Background())
	return err
}

func (b localBackend) QueryVertex(ctx context.Context, version string, vid uint64) (core.VertexQueryResult, error) {
	out, err := b.m.Runtime().Queries().Point(version, []uint64{vid})
	if err != nil {
		return core.VertexQueryResult{}, err
	}
	return out[0], nil
}

func (b localBackend) QueryTopK(ctx context.Context, version string, k int) ([]core.TopKEntry, error) {
	return b.m.Runtime().Queries().TopK(version, k)
}

func (b localBackend) QueryKHop(ctx context.Context, version string, source uint64, hops int) (*core.KHopResult, error) {
	return b.m.Runtime().Queries().KHop(version, source, hops)
}

func (b localBackend) DeltaStore() delta.Store { return core.DFSStore(b.m.Runtime().DFS) }

func (b localBackend) LatestVersion(string) (string, bool) { return "", false }

func (b localBackend) engineStats(v *statsView) {
	st, queued, running := b.m.Gate().Stats()
	v.localStats = &localStats{
		Scheduler: st,
		Queued:    queued,
		Running:   running,
		Cluster:   b.m.Runtime().CollectStats(),
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
	// gate admits one job or refresh at a time: the coordinator drives
	// a single run across the whole cluster (clusterSlots).
	gate *core.Gate

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
		gate:        core.NewGate(nil, clusterSlots),
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

func (b *clusterBackend) slots() int { return b.gate.Slots() }

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

func (b *clusterBackend) admit(j *job, pj *pregel.Job, resume bool) (func() (*core.JobStats, error), error) {
	input, err := b.getFile(j.req.Input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v (PUT /files%s first)", errNoInput, err, j.req.Input)
	}
	if j.name == "" {
		j.name = fmt.Sprintf("%s@j%d", pj.Name, j.id)
	}
	ticket, err := b.gate.Enter()
	if err != nil {
		return nil, err
	}
	return func() (*core.JobStats, error) {
		if err := ticket.Wait(j.ctx); err != nil {
			return nil, err
		}
		j.begin(ticket.OperatorMem())
		stats, output, err := b.RunJob(j.ctx, core.DistSubmission{
			Name:       j.name,
			Spec:       j.spec,
			Job:        pj,
			InputPath:  j.req.Input,
			InputData:  input,
			WantOutput: j.req.Output != "",
			Progress:   j.progress,
			Resume:     resume,
		})
		ticket.Release(err)
		if err == nil && j.req.Output != "" {
			b.storeFile(j.req.Output, output)
		}
		return stats, err
	}, nil
}

func (b *clusterBackend) refresh(spec []byte, pj *pregel.Job, fromVersion, name string, seq uint64, muts []delta.Mutation) error {
	ctx := context.Background()
	ticket, err := b.gate.Enter()
	if err != nil {
		return err
	}
	if err := ticket.Wait(ctx); err != nil {
		return err
	}
	_, err = b.DeltaRefresh(ctx, core.DeltaSubmission{
		Version: fromVersion,
		Name:    name,
		Spec:    spec,
		Job:     pj,
		Muts:    muts,
	})
	ticket.Release(err)
	return err
}

func (b *clusterBackend) engineStats(v *statsView) {
	c := &clusterStats{
		Workers:   b.Workers(),
		Standbys:  b.Standbys(),
		Nodes:     []string{},
		Recovery:  b.RecoveryEvents(),
		Rebalance: b.RebalanceEvents(),
		Adaptive:  b.AdaptiveEvents(),
	}
	for _, id := range b.Nodes() {
		c.Nodes = append(c.Nodes, string(id))
	}
	// [] rather than null for an empty log.
	if c.Recovery == nil {
		c.Recovery = []core.RecoveryEvent{}
	}
	if c.Rebalance == nil {
		c.Rebalance = []core.RebalanceEvent{}
	}
	if c.Adaptive == nil {
		c.Adaptive = []core.AdaptiveEvent{}
	}
	v.clusterStats = c
}

func (b *clusterBackend) scale() *scaleView {
	v := &scaleView{Workers: b.Topology(), Standbys: b.Standbys(), Events: b.RebalanceEvents()}
	if v.Workers == nil {
		v.Workers = []core.WorkerInfo{}
	}
	if v.Events == nil {
		v.Events = []core.RebalanceEvent{}
	}
	return v
}
