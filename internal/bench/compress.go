package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
	"pregelix/internal/wire"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// The compress experiment prices the per-frame compression on
// the three bulk byte paths it covers: wire shuffle streams, checkpoint
// images, and partition-migration images. One PageRank runs per
// compression mode over a loopback ForceWire cluster with periodic
// checkpoints, measuring payload bytes vs on-wire socket bytes (the
// compression ratio), shuffle throughput, and the checkpoint footprint
// on the DFS; then an elastic 2→4 scale-out runs with off and auto
// workers to price migration time-to-rebalance with compressed images.
// The experiment fails if flate and auto don't cut shuffle wire bytes
// by at least 30% — the PR7 acceptance bar.

// compressRun is one mode's measurements.
type compressRun struct {
	stats   *core.JobStats
	payload int64 // connector payload bytes, before compression
	wire    int64 // socket bytes, post-compression, headers included
	ckpt    int64 // image bytes of one checkpoint on the DFS
}

// runCompressedPageRank runs one checkpointing PageRank over loopback
// TCP with the given compression mode on both the transport and the
// runtime's image writers.
func (o *Options) runCompressedPageRank(ctx context.Context, name string, g *graphgen.Graph, mode tuple.CompressMode) (compressRun, error) {
	var out compressRun
	baseDir, err := os.MkdirTemp(o.WorkDir, "compress-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(baseDir)

	tr, err := wire.NewTCPTransport(wire.Config{ListenAddr: "127.0.0.1:0", ForceWire: true, Compress: mode})
	if err != nil {
		return out, err
	}
	defer tr.Close()
	local := make(map[hyracks.NodeID]bool)
	peers := make(map[hyracks.NodeID]string)
	for i := 1; i <= o.Nodes; i++ {
		id := hyracks.NodeID(fmt.Sprintf("nc%d", i))
		local[id] = true
		peers[id] = tr.Addr()
	}
	tr.SetPeers(peers, local)

	rt, err := core.NewRuntime(core.Options{
		BaseDir:    baseDir,
		Nodes:      o.Nodes,
		NodeConfig: hyracks.NodeConfig{RAMBytes: o.RAMPerNode, PageSize: 4096},
		Exec:       hyracks.ExecOptions{Transport: tr, LocalNodes: local},
		Compress:   mode,
	})
	if err != nil {
		return out, err
	}
	defer rt.Close()

	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, g); err != nil {
		return out, err
	}
	job := algorithms.NewPageRankJob(name, "/in/"+name, "", o.PageRankIterations)
	job.CheckpointEvery = 2
	if err := rt.DFS.WriteFile(job.InputPath, buf.Bytes()); err != nil {
		return out, err
	}
	// The runtime reclaims a job's checkpoints when it returns, so the
	// superstep-2 checkpoint is sized from inside superstep 3.
	inner := job.Program
	var once sync.Once
	var sizeErr error
	job.Program = pregel.ProgramFunc(func(pctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		if pctx.Superstep() == 3 {
			once.Do(func() {
				for _, path := range rt.DFS.List("/pregelix/" + name + "/ckpt/") {
					if !strings.Contains(path, "/vertex-p") && !strings.Contains(path, "/msg-p") {
						continue
					}
					n, err := rt.DFS.Size(path)
					if err != nil {
						sizeErr = err
					}
					out.ckpt += n
				}
			})
		}
		return inner.Compute(pctx, v, msgs)
	})
	out.stats, err = rt.Run(ctx, job)
	if err == nil {
		err = sizeErr
	}
	if err != nil {
		return out, err
	}
	for _, ss := range out.stats.SuperstepStats {
		out.payload += ss.NetworkBytes
		out.wire += ss.NetworkWireBytes
	}
	return out, nil
}

// measureCompressedMigration reruns the elastic 2→4 scale-out with a
// per-worker compression mode and returns the summed scale-out
// rebalance time (partition images over the control plane + routing
// rebroadcast) and the count of partitions migrated.
func (o *Options) measureCompressedMigration(ctx context.Context, dir string, mode tuple.CompressMode) (time.Duration, int, error) {
	iterations := o.PageRankIterations
	if iterations < 8 {
		iterations = 8
	}
	const joinAt = 3
	g, _ := o.buildDataset(WebmapData, 0.10, 43)
	var graph bytes.Buffer
	if _, err := graphgen.WriteText(&graph, g); err != nil {
		return 0, 0, err
	}

	coord, err := core.NewCoordinator(core.CoordinatorConfig{
		ListenAddr: "127.0.0.1:0",
		Workers:    2,
		RAMBytes:   o.RAMPerNode,
	})
	if err != nil {
		return 0, 0, err
	}
	defer coord.Close()
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	startWorker := func(i int, elastic bool) {
		go core.RunWorker(wctx, core.WorkerConfig{
			CCAddr:   coord.Addr(),
			BaseDir:  fmt.Sprintf("%s/w%d", dir, i),
			Nodes:    2,
			BuildJob: elasticBuilder,
			Elastic:  elastic,
			Compress: mode,
		})
	}
	for i := 0; i < 2; i++ {
		startWorker(i, false)
	}
	readyCtx, done := context.WithTimeout(ctx, 60*time.Second)
	defer done()
	if err := coord.WaitReady(readyCtx); err != nil {
		return 0, 0, err
	}

	joined := false
	progress := func(ss int64) {
		if ss != joinAt || joined {
			return
		}
		joined = true
		for i := 2; i < 4; i++ {
			startWorker(i, true)
		}
		deadline := time.Now().Add(60 * time.Second)
		for coord.Standbys() < 2 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
	}

	spec, err := json.Marshal(elasticSpec{Iterations: iterations})
	if err != nil {
		return 0, 0, err
	}
	job, err := elasticBuilder(spec)
	if err != nil {
		return 0, 0, err
	}
	stats, _, err := coord.RunJob(ctx, core.DistSubmission{
		Name:      "compress-mig@bench",
		Spec:      spec,
		Job:       job,
		InputPath: "/in/elastic",
		InputData: graph.Bytes(),
		Progress:  progress,
	})
	if err != nil {
		return 0, 0, err
	}
	if stats.Rebalances == 0 {
		return 0, 0, fmt.Errorf("bench: compressed migration run recorded no rebalance")
	}
	var rebalance time.Duration
	var migrated int
	for _, ev := range coord.RebalanceEvents() {
		if ev.Kind == "scale-out" {
			rebalance += ev.Duration
			migrated += ev.Partitions
		}
	}
	return rebalance, migrated, nil
}

// RunCompress benchmarks the per-frame compression across
// shuffle, checkpoint, and migration (the PR7 bench artifact).
func RunCompress(ctx context.Context, o Options) error {
	o.defaults()
	dir := o.WorkDir
	if dir == "" {
		d, err := os.MkdirTemp("", "compress")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dir = d
	}

	g, ratio := o.buildDataset(WebmapData, 0.10, 43)
	o.printf("frame compression: PageRank over loopback TCP, %d machines, ratio %.3f, %d iterations, checkpoint every 2\n",
		o.Nodes, ratio, o.PageRankIterations)
	o.printf("%-10s %12s %14s %14s %8s %10s %14s\n",
		"mode", "overall", "payload bytes", "wire bytes", "saved", "MB/s", "ckpt bytes")

	modes := []tuple.CompressMode{tuple.CompressOff, tuple.CompressFlate, tuple.CompressAuto}
	runs := make(map[tuple.CompressMode]compressRun, len(modes))
	for _, mode := range modes {
		run, err := o.runCompressedPageRank(ctx, "compress-"+mode.String(), g, mode)
		if err != nil {
			o.Metrics.Record(RunMetric{System: "pregelix", Job: "compress-shuffle-" + mode.String(), Failed: true})
			return err
		}
		runs[mode] = run
		saved := 0.0
		if off := runs[tuple.CompressOff]; off.wire > 0 {
			saved = 1 - float64(run.wire)/float64(off.wire)
		}
		rate := 0.0
		if run.stats.RunDuration > 0 {
			rate = float64(run.payload) / run.stats.RunDuration.Seconds() / (1 << 20)
		}
		o.printf("%-10s %11.2fs %14d %14d %7.1f%% %10.1f %14d\n",
			mode, (run.stats.LoadDuration + run.stats.RunDuration).Seconds(),
			run.payload, run.wire, saved*100, rate, run.ckpt)
		o.Metrics.Record(RunMetric{
			System: "pregelix", Job: "compress-shuffle-" + mode.String(),
			Ratio:           ratio,
			WallSeconds:     (run.stats.LoadDuration + run.stats.RunDuration).Seconds(),
			AvgIterSeconds:  run.stats.AvgIterationTime().Seconds(),
			Supersteps:      run.stats.Supersteps,
			NetworkBytes:    run.payload,
			WireBytes:       run.wire,
			CheckpointBytes: run.ckpt,
			ShuffleMBPerSec: rate,
		})
	}

	// Acceptance bar: flate and auto must cut shuffle wire bytes by ≥30%
	// (and payload accounting must be identical — compression is
	// transparent above the socket).
	off := runs[tuple.CompressOff]
	if off.wire == 0 {
		return fmt.Errorf("bench: ForceWire run recorded no on-wire bytes")
	}
	for _, mode := range modes[1:] {
		r := runs[mode]
		if r.payload != off.payload {
			return fmt.Errorf("bench: %v payload bytes %d differ from off's %d", mode, r.payload, off.payload)
		}
		if r.wire*10 > off.wire*7 {
			return fmt.Errorf("bench: %v saved only %.1f%% wire bytes, need ≥30%%",
				mode, 100*(1-float64(r.wire)/float64(off.wire)))
		}
		if r.ckpt >= off.ckpt {
			return fmt.Errorf("bench: %v checkpoints take %d bytes, off %d", mode, r.ckpt, off.ckpt)
		}
	}

	o.printf("\nmigration (elastic 2→4 scale-out, compressed partition images)\n")
	o.printf("%-10s %18s %12s\n", "mode", "time to rebalance", "partitions")
	for _, mode := range []tuple.CompressMode{tuple.CompressOff, tuple.CompressAuto} {
		rebalance, migrated, err := o.measureCompressedMigration(ctx, fmt.Sprintf("%s/mig-%s", dir, mode), mode)
		if err != nil {
			o.Metrics.Record(RunMetric{System: "pregelix", Job: "compress-migration-" + mode.String(), Failed: true})
			return err
		}
		o.printf("%-10s %18s %12d\n", mode, rebalance.Round(time.Millisecond), migrated)
		o.Metrics.Record(RunMetric{
			System: "pregelix", Job: "compress-migration-" + mode.String(),
			RebalanceSeconds: rebalance.Seconds(),
		})
	}
	o.printf("(single-host loopback: the savings column is the wire story; on a real\n")
	o.printf(" network the MB/s gap widens with the bandwidth/CPU ratio)\n")
	return nil
}
