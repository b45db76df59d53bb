package bench

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
)

// RunConcJobs measures the multi-tenant job scheduler: N concurrent
// PageRank jobs submitted to one shared cluster through one admission
// gate (core.Gate, each admitted job a Runtime.RunAdmitted under the
// gate's memory carve), across a concurrency ladder. It
// extends Figure 13 beyond concurrency 3 and reports what the
// admission controller adds over unbounded submission: makespan,
// jobs/hour, and mean queue wait per rung.
func RunConcJobs(ctx context.Context, o Options) error {
	o.defaults()
	g, ratio := o.buildDataset(WebmapData, 0.08, 97)
	ladder := []int{1, 2, 4, 8}
	slots := 2

	o.printf("Concurrent jobs: PageRank throughput under admission control (%d machines, %d slots, ratio %.3f)\n",
		o.Nodes, slots, ratio)
	o.printf("%-8s %12s %12s %14s %14s\n", "jobs", "makespan", "jobs/hour", "avg queue", "peak running")
	for _, conc := range ladder {
		res, err := o.runConcRung(ctx, g, conc, slots)
		if err != nil {
			return err
		}
		o.printf("%-8d %11.2fs %12.1f %13.3fs %14d\n",
			conc, res.makespan.Seconds(), res.jobsPerHour, res.avgQueueWait.Seconds(), res.peakRunning)
		o.Metrics.Record(RunMetric{
			System:           "pregelix-jobmanager",
			Job:              fmt.Sprintf("conc-pagerank-%d", conc),
			Ratio:            ratio,
			WallSeconds:      res.makespan.Seconds(),
			Supersteps:       res.supersteps,
			IOBytes:          res.ioBytes,
			Concurrency:      conc,
			JobsPerHour:      res.jobsPerHour,
			QueueWaitSeconds: res.avgQueueWait.Seconds(),
		})
	}
	return nil
}

type concRungResult struct {
	makespan     time.Duration
	jobsPerHour  float64
	avgQueueWait time.Duration
	peakRunning  int
	supersteps   int64
	ioBytes      int64
}

// runConcRung runs one concurrency rung on a fresh shared cluster.
func (o *Options) runConcRung(ctx context.Context, g *graphgen.Graph, conc, slots int) (concRungResult, error) {
	var out concRungResult
	baseDir, err := os.MkdirTemp(o.WorkDir, "conc-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(baseDir)
	rt, err := core.NewRuntime(core.Options{
		BaseDir:    baseDir,
		Nodes:      o.Nodes,
		NodeConfig: hyracks.NodeConfig{RAMBytes: o.RAMPerNode, PageSize: 4096},
	})
	if err != nil {
		return out, err
	}
	defer rt.Close()
	var buf strings.Builder
	if _, err := graphgen.WriteText(&buf, g); err != nil {
		return out, err
	}
	if err := rt.DFS.WriteFile("/in/conc", []byte(buf.String())); err != nil {
		return out, err
	}

	gate := core.NewGate(rt.Cluster, slots)
	defer gate.Close()
	type result struct {
		stats *core.JobStats
		wait  time.Duration // from submission until the ticket's Wait returned
		err   error
	}
	results := make([]result, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for j := 0; j < conc; j++ {
		job := o.jobFor(PageRank, fmt.Sprintf("conc-c%d-j%d", conc, j))
		job.InputPath, job.OutputPath = "/in/conc", ""
		ticket, err := gate.Enter()
		if err != nil {
			wg.Wait()
			return out, err
		}
		submitted := time.Now()
		wg.Add(1)
		go func(r *result) {
			defer wg.Done()
			if r.err = ticket.Wait(ctx); r.err != nil {
				return
			}
			r.wait = time.Since(submitted)
			r.stats, r.err = rt.RunAdmitted(ctx, job, ticket.OperatorMem())
			ticket.Release(r.err)
		}(&results[j])
	}
	wg.Wait()
	out.makespan = time.Since(start)
	var totalWait time.Duration
	for j, r := range results {
		if r.err != nil {
			return out, fmt.Errorf("job conc-c%d-j%d: %w", conc, j, r.err)
		}
		totalWait += r.wait
		out.supersteps += r.stats.Supersteps
		for _, ss := range r.stats.SuperstepStats {
			out.ioBytes += ss.IOBytes
		}
	}
	out.jobsPerHour = float64(conc) / out.makespan.Hours()
	out.avgQueueWait = totalWait / time.Duration(conc)
	st, _, _ := gate.Stats()
	out.peakRunning = st.PeakRunning
	return out, nil
}
