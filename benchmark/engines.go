package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
)

// jobRun is one finished job as the benchmark saw it from outside.
type jobRun struct {
	wall  time.Duration // submit -> output dumped
	stats *core.JobStats
	out   []byte // the dump
	// stolen is the share of the machine's CPU time the hypervisor took
	// away while the job ran.
	stolen float64
}

// jobOpts varies a workload's job for the warm-up and the traced
// checkpoint comparison.
type jobOpts struct {
	maxSupersteps int  // 0 = the job's own
	noCheckpoint  bool // run without CheckpointEvery
}

// cacheCounters are the buffer-cache totals of every node of a
// single-process runtime.
type cacheCounters struct {
	hits, misses, evictions, writebacks int64
	ramPeak                             int64 // largest node RAM peak, bytes
}

// engine runs a batch workload's jobs: a single-process core.Runtime or
// a coordinator with two in-process workers.
type engine interface {
	run(ctx context.Context, seq int, o jobOpts) (jobRun, error)
	// counters reports buffer-cache totals; ok is false on the cluster,
	// whose workers expose none.
	counters() (c cacheCounters, ok bool)
	close() error
}

// singleEngine is core.Runtime on simNodes simulated nodes.
type singleEngine struct {
	rt   *core.Runtime
	spec batchSpec
	name string
}

func startSingle(dir, workload string, spec batchSpec, input []byte) (*singleEngine, error) {
	rt, err := core.NewRuntime(core.Options{
		BaseDir: dir,
		Nodes:   simNodes,
		NodeConfig: hyracks.NodeConfig{
			RAMBytes: spec.ramPerNode,
			PageSize: pageSize,
		},
	})
	if err != nil {
		return nil, err
	}
	if err := rt.DFS.WriteFile(inputPath, input); err != nil {
		rt.Close()
		return nil, err
	}
	return &singleEngine{rt: rt, spec: spec, name: workload}, nil
}

func (e *singleEngine) run(ctx context.Context, seq int, o jobOpts) (jobRun, error) {
	name := fmt.Sprintf("%s-%d", e.name, seq)
	out := "/out/" + name
	job := e.spec.job(name, out)
	if o.maxSupersteps > 0 {
		job.MaxSupersteps = o.maxSupersteps
	}
	if o.noCheckpoint {
		job.CheckpointEvery = 0
	}
	start := time.Now()
	stats, err := e.rt.Run(ctx, job)
	wall := time.Since(start)
	if err != nil {
		return jobRun{}, err
	}
	data, err := e.rt.DFS.ReadFile(out)
	if err != nil {
		return jobRun{}, fmt.Errorf("reading dump %s: %w", out, err)
	}
	// Drop the dump so disk use does not grow with the number of jobs.
	if err := e.rt.DFS.Remove(out); err != nil {
		return jobRun{}, err
	}
	return jobRun{wall: wall, stats: stats, out: data}, nil
}

func (e *singleEngine) counters() (cacheCounters, bool) {
	var c cacheCounters
	for _, n := range e.rt.CollectStats().Nodes {
		c.hits += n.CacheHits
		c.misses += n.CacheMisses
		c.evictions += n.Evictions
		c.writebacks += n.Writebacks
		if n.RAMPeak > c.ramPeak {
			c.ramPeak = n.RAMPeak
		}
	}
	return c, true
}

func (e *singleEngine) close() error { return e.rt.Close() }

// cluster is a coordinator plus two in-process workers (one node each)
// talking over loopback TCP, as `pregelix serve -workers 2` would run
// them in separate processes.
type cluster struct {
	coord   *core.Coordinator
	cancel  context.CancelFunc
	workers sync.WaitGroup
}

func startCluster(ctx context.Context, dir string, ramPerNode int64) (*cluster, error) {
	coord, err := core.NewCoordinator(core.CoordinatorConfig{
		ListenAddr: "127.0.0.1:0",
		Workers:    simNodes,
		RAMBytes:   ramPerNode,
		PageSize:   pageSize,
		BaseDir:    filepath.Join(dir, "cc"),
	})
	if err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	c := &cluster{coord: coord, cancel: cancel}
	for i := 0; i < simNodes; i++ {
		cfg := core.WorkerConfig{
			CCAddr:   coord.Addr(),
			BaseDir:  filepath.Join(dir, fmt.Sprintf("w%d", i)),
			Nodes:    1,
			BuildJob: buildClusterJob,
		}
		c.workers.Add(1)
		go func() {
			defer c.workers.Done()
			// The error is the cancellation (or a lost coordinator) that
			// ends every worker; a worker that died early shows up as a
			// failed WaitReady or job instead.
			_ = core.RunWorker(wctx, cfg)
		}()
	}
	readyCtx, done := context.WithTimeout(ctx, 60*time.Second)
	defer done()
	if err := coord.WaitReady(readyCtx); err != nil {
		c.close()
		return nil, fmt.Errorf("cluster never assembled: %w", err)
	}
	return c, nil
}

// close stops the workers and the coordinator and waits for the worker
// goroutines to return.
func (c *cluster) close() error {
	c.cancel()
	c.coord.Close()
	c.workers.Wait()
	return nil
}

// clusterEngine runs pr_cluster's jobs on a cluster.
type clusterEngine struct {
	*cluster
}

func startClusterEngine(ctx context.Context, dir string, spec batchSpec, input []byte) (*clusterEngine, error) {
	c, err := startCluster(ctx, dir, spec.ramPerNode)
	if err != nil {
		return nil, err
	}
	// Ship the input once, as part of set-up; jobs then load it from the
	// workers' file systems.
	if err := c.coord.PutFile(ctx, inputPath, input); err != nil {
		c.close()
		return nil, err
	}
	return &clusterEngine{c}, nil
}

func (e *clusterEngine) run(ctx context.Context, seq int, o jobOpts) (jobRun, error) {
	spec := clusterJobSpec{Algorithm: "pagerank", CheckpointEvery: checkpointEvery}
	if o.noCheckpoint {
		spec.CheckpointEvery = 0
	}
	job, err := buildClusterJob(spec.raw())
	if err != nil {
		return jobRun{}, err
	}
	if o.maxSupersteps > 0 {
		job.MaxSupersteps = o.maxSupersteps
	}
	start := time.Now()
	stats, out, err := e.coord.RunJob(ctx, core.DistSubmission{
		// One base name, so each run's seal retires the previous one.
		Name:       fmt.Sprintf("pr@j%d", seq),
		Spec:       spec.raw(),
		Job:        job,
		InputPath:  inputPath,
		WantOutput: true,
	})
	wall := time.Since(start)
	if err != nil {
		return jobRun{}, err
	}
	return jobRun{wall: wall, stats: stats, out: out}, nil
}

func (e *clusterEngine) counters() (cacheCounters, bool) { return cacheCounters{}, false }

// startEngine sets a batch workload up once: generate the graph, start
// the runtime or cluster, write the input. It is what setup_s times.
func startEngine(ctx context.Context, cfg *runConfig, spec batchSpec, dir string) (engine, *graphgen.Graph, error) {
	g := spec.graph(cfg)
	text, err := graphText(g)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if spec.cluster {
		e, err := startClusterEngine(ctx, dir, spec, text)
		if err != nil {
			return nil, nil, err
		}
		return e, g, nil
	}
	e, err := startSingle(dir, cfg.Workload, spec, text)
	if err != nil {
		return nil, nil, err
	}
	return e, g, nil
}
