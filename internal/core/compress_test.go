package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
	"pregelix/internal/wire"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// newCompressedWireRuntime is newWireRuntime with a compression policy:
// every connector stream crosses loopback TCP (ForceWire) and both the
// transport and the runtime (checkpoint/migration images) compress.
func newCompressedWireRuntime(t *testing.T, nodes int, mode tuple.CompressMode) *Runtime {
	t.Helper()
	tr, err := wire.NewTCPTransport(wire.Config{ListenAddr: "127.0.0.1:0", ForceWire: true, Compress: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	local := make(map[hyracks.NodeID]bool, nodes)
	peers := make(map[hyracks.NodeID]string, nodes)
	for i := 1; i <= nodes; i++ {
		id := hyracks.NodeID(fmt.Sprintf("nc%d", i))
		local[id] = true
		peers[id] = tr.Addr()
	}
	tr.SetPeers(peers, local)
	rt, err := NewRuntime(Options{
		BaseDir:           t.TempDir(),
		Nodes:             nodes,
		PartitionsPerNode: 2,
		Exec:              hyracks.ExecOptions{Transport: tr, LocalNodes: local},
		Compress:          mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestPageRankCompressedParity is the PR7 acceptance check at the core
// layer: full PageRank jobs with compressed wire shuffles must produce
// results identical to -compress=off, while shipping measurably fewer
// bytes on the sockets (visible as SuperstepStat.NetworkWireBytes).
func TestPageRankCompressedParity(t *testing.T) {
	g := graphgen.Webmap(260, 4, 13)
	const iterations = 4

	run := func(mode tuple.CompressMode) (map[uint64]string, int64, int64) {
		rt := newCompressedWireRuntime(t, 3, mode)
		defer rt.Close()
		putGraph(t, rt, "/in/g", g)
		job := algorithms.NewPageRankJob("pr-"+mode.String(), "/in/g", "/out/pr", iterations)
		stats, err := rt.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		var payload, onWire int64
		for _, ss := range stats.SuperstepStats {
			payload += ss.NetworkBytes
			onWire += ss.NetworkWireBytes
		}
		return readOutputValues(t, rt, "/out/pr"), payload, onWire
	}

	want, offPayload, offWire := run(tuple.CompressOff)
	if offWire == 0 {
		t.Fatal("ForceWire run reported no on-wire bytes")
	}
	for _, mode := range []tuple.CompressMode{tuple.CompressFlate, tuple.CompressAuto} {
		got, payload, onWire := run(mode)
		compareValues(t, got, want, "compressed-vs-off-"+mode.String())
		if payload != offPayload {
			t.Fatalf("%v payload bytes %d, off %d — compression must not change payload accounting",
				mode, payload, offPayload)
		}
		if onWire == 0 || onWire >= offWire {
			t.Fatalf("%v shipped %d wire bytes, off shipped %d — expected a reduction",
				mode, onWire, offWire)
		}
	}
}

// TestCompressedCheckpointRecovery checkpoints with compression on,
// kills a node, and requires recovery to restore from the compressed
// images — plus the images themselves to carry the codec magic and be
// smaller than their uncompressed counterparts.
func TestCompressedCheckpointRecovery(t *testing.T) {
	g := graphgen.Webmap(200, 4, 5)
	const iterations = 6
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", iterations), g)

	// The runtime reclaims a job's checkpoints when it returns, so both
	// runs size (and the compressed run inspects) the superstep-2
	// checkpoint from inside superstep 3.
	ckptBytes := func(rt *Runtime, jobName string, inspect func(path string)) int64 {
		var total int64
		for _, path := range rt.DFS.List("/pregelix/" + jobName + "/ckpt/") {
			if !strings.Contains(path, "/vertex-p") && !strings.Contains(path, "/msg-p") {
				continue
			}
			n, err := rt.DFS.Size(path)
			if err != nil {
				t.Error(err)
			}
			total += n
			if inspect != nil {
				inspect(path)
			}
		}
		if total == 0 {
			t.Errorf("job %s has no checkpoint images at superstep 3", jobName)
		}
		return total
	}
	atSuperstep3 := func(job *pregel.Job, fn func()) {
		inner := job.Program
		var once sync.Once
		job.Program = pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			if ctx.Superstep() == 3 {
				once.Do(fn)
			}
			return inner.Compute(ctx, v, msgs)
		})
	}

	// Baseline: uncompressed checkpoints, no failure.
	offRT := newTestRuntime(t, 3)
	defer offRT.Close()
	putGraph(t, offRT, "/in/g", g)
	offJob := algorithms.NewPageRankJob("pr-ckpt-off", "/in/g", "/out/off", iterations)
	offJob.CheckpointEvery = 2
	var offBytes int64
	atSuperstep3(offJob, func() { offBytes = ckptBytes(offRT, "pr-ckpt-off", nil) })
	if _, err := offRT.Run(context.Background(), offJob); err != nil {
		t.Fatal(err)
	}

	// Compressed checkpoints with a node failure after the checkpoint:
	// recovery must reload from the compressed images.
	autoRT, err := NewRuntime(Options{
		BaseDir:           t.TempDir(),
		Nodes:             3,
		PartitionsPerNode: 2,
		Compress:          tuple.CompressAuto,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer autoRT.Close()
	putGraph(t, autoRT, "/in/g", g)
	autoJob := algorithms.NewPageRankJob("pr-ckpt-auto", "/in/g", "/out/auto", iterations)
	autoJob.CheckpointEvery = 2
	// The vertex images must be in the compressed stream format...
	var autoBytes int64
	var sawVertex bool
	atSuperstep3(autoJob, func() {
		autoBytes = ckptBytes(autoRT, "pr-ckpt-auto", func(path string) {
			if !strings.Contains(path, "/vertex-p") {
				return
			}
			sawVertex = true
			data, err := autoRT.DFS.ReadFile(path)
			if err != nil {
				t.Error(err)
			}
			if len(data) >= 4 && !bytes.Equal(data[:4], []byte("PGXC")) {
				t.Errorf("%s does not start with the frame-stream magic", path)
			}
		})
	})
	triggered := false
	autoJob.Program = &failAfterProgram{
		inner:     autoJob.Program,
		node:      autoRT.Cluster.Nodes()[1],
		atStep:    4,
		triggered: &triggered,
	}
	stats, err := autoRT.Run(context.Background(), autoJob)
	if err != nil {
		t.Fatal(err)
	}
	if !triggered || stats.Recoveries == 0 {
		t.Fatalf("triggered=%v recoveries=%d", triggered, stats.Recoveries)
	}
	compareValues(t, readOutputValues(t, autoRT, "/out/auto"), want, "pagerank-after-compressed-recovery")
	if !sawVertex {
		t.Fatal("no vertex images found in the compressed checkpoint")
	}
	// ...and meaningfully smaller than the uncompressed baseline.
	if autoBytes >= offBytes {
		t.Fatalf("compressed checkpoints take %d bytes, uncompressed %d", autoBytes, offBytes)
	}
}

// startMixedCluster is startDistCluster with a per-worker compression
// policy — the mixed-cluster deployment the OPEN negotiation exists for.
func startMixedCluster(t *testing.T, modes []tuple.CompressMode, nodesPerWorker int) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{
		ListenAddr: "127.0.0.1:0",
		Workers:    len(modes),
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		coord.Close()
		cancel()
	})
	for _, mode := range modes {
		dir, mode := t.TempDir(), mode
		go func() {
			RunWorker(ctx, WorkerConfig{
				CCAddr:   coord.Addr(),
				BaseDir:  dir,
				Nodes:    nodesPerWorker,
				BuildJob: distTestBuilder,
				Compress: mode,
			})
		}()
	}
	readyCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := coord.WaitReady(readyCtx); err != nil {
		t.Fatalf("cluster never became ready: %v", err)
	}
	return coord
}

// TestMixedClusterCompressionInterop joins a -compress=off worker to a
// compressing cluster: per-stream negotiation must silently downgrade
// the mixed streams to raw frames and the job output must be
// byte-identical to an all-off cluster's. Connected components is used
// because its min-combiner is exact, so the dumped output is byte-stable
// across runs (PageRank's float sums vary in the last ulps with message
// arrival order, on any transport).
func TestMixedClusterCompressionInterop(t *testing.T) {
	g := graphgen.BTC(300, 3, 7)
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)

	runCluster := func(name string, modes []tuple.CompressMode) []byte {
		coord := startMixedCluster(t, modes, 2)
		spec, _ := json.Marshal(distTestSpec{Algorithm: "cc", Input: "/in/g"})
		job, err := distTestBuilder(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		_, output, err := coord.RunJob(ctx, DistSubmission{
			Name:       name + "@j1",
			Spec:       spec,
			Job:        job,
			InputPath:  "/in/g",
			InputData:  graphText(t, g),
			WantOutput: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return output
	}

	offOut := runCluster("cc-all-off", []tuple.CompressMode{tuple.CompressOff, tuple.CompressOff})
	compareValues(t, parseOutput(t, offOut), want, "all-off-cluster")
	mixedOut := runCluster("cc-mixed", []tuple.CompressMode{tuple.CompressAuto, tuple.CompressOff})
	if !bytes.Equal(mixedOut, offOut) {
		t.Fatal("mixed-compression cluster output differs from the all-off cluster")
	}
}
