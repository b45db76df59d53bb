package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pregelix/internal/dfs"
	"pregelix/internal/graphgen"
	"pregelix/internal/tuple"
	"pregelix/internal/wire"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// killableCluster is a coordinator plus worker goroutines that can be
// killed individually — each worker has its own context whose
// cancellation closes its control connection and transport, the
// in-process analog of SIGKILLing the worker process.
type killableCluster struct {
	coord *Coordinator
	kills []context.CancelFunc
}

// kill terminates worker i (idempotent).
func (kc *killableCluster) kill(i int) { kc.kills[i]() }

// addWorker starts one extra worker (a standby once the cluster has
// assembled) and returns its kill switch.
func (kc *killableCluster) addWorker(t *testing.T, nodes int, builder func(json.RawMessage) (*pregel.Job, error)) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	dir := t.TempDir()
	go func() {
		RunWorker(ctx, WorkerConfig{
			CCAddr:   kc.coord.Addr(),
			BaseDir:  dir,
			Nodes:    nodes,
			BuildJob: builder,
		})
	}()
	kc.kills = append(kc.kills, cancel)
	return cancel
}

// startKillableCluster assembles a coordinator and `workers` killable
// workers; builders[i] (nil = distTestBuilder) lets a test plant
// fault-injection wrappers into a single worker's job construction.
func startKillableCluster(t *testing.T, cfg CoordinatorConfig, workers, nodesPerWorker int,
	builders map[int]func(json.RawMessage) (*pregel.Job, error)) *killableCluster {
	t.Helper()
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = "127.0.0.1:0"
	}
	cfg.Workers = workers
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	kc := &killableCluster{coord: coord}
	for i := 0; i < workers; i++ {
		builder := builders[i]
		if builder == nil {
			builder = distTestBuilder
		}
		kc.addWorker(t, nodesPerWorker, builder)
	}
	readyCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := coord.WaitReady(readyCtx); err != nil {
		t.Fatalf("cluster never became ready: %v", err)
	}
	return kc
}

// killerBuilder wraps the test job builder so the hosting worker kills
// itself mid-compute at the given superstep — the vertex function is
// interrupted with frames in flight, the way a real crash lands.
func killerBuilder(kill func(), atStep int64, triggered *atomic.Bool) func(json.RawMessage) (*pregel.Job, error) {
	return func(raw json.RawMessage) (*pregel.Job, error) {
		job, err := distTestBuilder(raw)
		if err != nil {
			return nil, err
		}
		inner := job.Program
		job.Program = pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			if ctx.Superstep() == atStep && triggered.CompareAndSwap(false, true) {
				kill()
				// Let the dying connection surface at the coordinator
				// before this compute task unwinds.
				time.Sleep(100 * time.Millisecond)
			}
			return inner.Compute(ctx, v, msgs)
		})
		return job, nil
	}
}

// settleRecovery polls a condition with a deadline.
func settleRecovery(t *testing.T, what string, cond func() (bool, string)) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var detail string
	for time.Now().Before(deadline) {
		var ok bool
		if ok, detail = cond(); ok {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never settled: %s", what, detail)
}

// runDistJob submits one checkpointed job to a cluster and returns its
// stats and output.
func runDistJob(t *testing.T, coord *Coordinator, name, algorithm string, g *graphgen.Graph, iterations, ckptEvery int) (*JobStats, []byte, error) {
	t.Helper()
	spec, _ := json.Marshal(distTestSpec{Algorithm: algorithm, Input: "/in/g", Iterations: iterations})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	job.CheckpointEvery = ckptEvery
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	return coord.RunJob(ctx, DistSubmission{
		Name:       name,
		Spec:       spec,
		Job:        job,
		InputPath:  "/in/g",
		InputData:  graphText(t, g),
		WantOutput: true,
	})
}

// TestDistributedKillRecovery is the tentpole acceptance test: a
// distributed PageRank with CheckpointEvery=2 whose worker dies
// mid-superstep must recover (redistributing the dead worker's nodes
// over the survivor, since no standby is parked) and produce results
// identical to a failure-free run — value-equal for PageRank, whose
// floating-point sums legitimately jitter in the last ulps with message
// arrival order even between two failure-free runs (byte-exactness is
// asserted separately on integer-valued connected components in
// TestDistributedKillRecoveryExactOutput). The abort/restore path must
// leak neither pooled frames nor goroutines.
func TestDistributedKillRecovery(t *testing.T) {
	g := graphgen.Webmap(300, 4, 11)
	const iterations = 6
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", iterations), g)

	// Failure-free distributed baseline.
	clean := startKillableCluster(t, CoordinatorConfig{}, 2, 2, nil)
	cleanStats, cleanOut, err := runDistJob(t, clean.coord, "pr-clean@j1", "pagerank", g, iterations, 2)
	if err != nil {
		t.Fatal(err)
	}
	compareValues(t, parseOutput(t, cleanOut), want, "failure-free")
	clean.coord.Close()

	leases := tuple.LeasedFrames()
	goroutines := runtime.NumGoroutine()

	// Faulty cluster: worker 1 kills itself inside superstep 4's compute
	// — after the superstep-2 checkpoint committed, mid-shuffle.
	var triggered atomic.Bool
	kc := (*killableCluster)(nil)
	builders := map[int]func(json.RawMessage) (*pregel.Job, error){}
	builders[1] = killerBuilder(func() { kc.kill(1) }, 4, &triggered)
	kc = startKillableCluster(t, CoordinatorConfig{}, 2, 2, builders)

	stats, out, err := runDistJob(t, kc.coord, "pr-kill@j1", "pagerank", g, iterations, 2)
	if err != nil {
		t.Fatalf("job did not survive the kill: %v", err)
	}
	if !triggered.Load() {
		t.Fatal("failure was never injected")
	}
	if stats.Recoveries == 0 {
		t.Fatal("no recovery recorded")
	}
	if stats.Checkpoints == 0 {
		t.Fatal("no checkpoints recorded")
	}
	compareValues(t, parseOutput(t, out), parseOutput(t, cleanOut), "recovered-vs-clean")
	compareValues(t, parseOutput(t, out), want, "after-recovery")
	if stats.FinalState.Superstep != iterations {
		t.Fatalf("final superstep %d, want %d", stats.FinalState.Superstep, iterations)
	}
	if stats.FinalState.NumVertices != cleanStats.FinalState.NumVertices {
		t.Fatalf("recovered run saw %d vertices, failure-free saw %d",
			stats.FinalState.NumVertices, cleanStats.FinalState.NumVertices)
	}
	// Statistics must roll back with the state: replayed supersteps may
	// not leave duplicate rows or double-counted totals.
	seenSS := map[int64]bool{}
	for _, st := range stats.SuperstepStats {
		if seenSS[st.Superstep] {
			t.Fatalf("duplicate SuperstepStats entry for superstep %d after recovery", st.Superstep)
		}
		seenSS[st.Superstep] = true
	}
	if len(stats.SuperstepStats) != int(iterations) {
		t.Fatalf("%d superstep stat rows, want %d", len(stats.SuperstepStats), iterations)
	}
	if stats.TotalMessages != cleanStats.TotalMessages {
		t.Fatalf("recovered run counted %d messages, failure-free counted %d",
			stats.TotalMessages, cleanStats.TotalMessages)
	}

	// The dead worker's nodes were redistributed, not lost.
	evs := kc.coord.RecoveryEvents()
	var sawLost, sawRespread bool
	for _, ev := range evs {
		switch ev.Kind {
		case "worker-lost":
			sawLost = true
		case "redistributed":
			sawRespread = true
		}
	}
	if !sawLost || !sawRespread {
		t.Fatalf("recovery events incomplete: %+v", evs)
	}
	if kc.coord.Workers() != 1 {
		t.Fatalf("live workers %d, want 1", kc.coord.Workers())
	}

	// Hygiene: once the cluster is down, the abort/restore/retry cycle
	// must have returned every pooled frame and drained every goroutine.
	kc.coord.Close()
	kc.kill(0)
	settleRecovery(t, "frame leases", func() (bool, string) {
		now := tuple.LeasedFrames()
		return now <= leases, fmt.Sprintf("%d leased frames, baseline %d", now, leases)
	})
	settleRecovery(t, "goroutines", func() (bool, string) {
		now := runtime.NumGoroutine()
		return now <= goroutines+2, fmt.Sprintf("%d goroutines, baseline %d", now, goroutines)
	})
}

// TestDistributedKillRecoveryExactOutput asserts the strong form of
// the acceptance criterion on an algorithm with order-independent
// integer results: a connected-components run whose worker is killed
// mid-superstep must produce output byte-identical to the failure-free
// run.
func TestDistributedKillRecoveryExactOutput(t *testing.T) {
	g := graphgen.BTC(260, 3, 7)
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)

	clean := startKillableCluster(t, CoordinatorConfig{}, 2, 2, nil)
	_, cleanOut, err := runDistJob(t, clean.coord, "cc-clean@j1", "cc", g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	compareValues(t, parseOutput(t, cleanOut), want, "cc-failure-free")
	clean.coord.Close()

	var triggered atomic.Bool
	kc := (*killableCluster)(nil)
	builders := map[int]func(json.RawMessage) (*pregel.Job, error){}
	builders[1] = killerBuilder(func() { kc.kill(1) }, 3, &triggered)
	kc = startKillableCluster(t, CoordinatorConfig{}, 2, 2, builders)

	stats, out, err := runDistJob(t, kc.coord, "cc-kill@j1", "cc", g, 0, 2)
	if err != nil {
		t.Fatalf("job did not survive the kill: %v", err)
	}
	if !triggered.Load() || stats.Recoveries == 0 {
		t.Fatalf("triggered=%v recoveries=%d", triggered.Load(), stats.Recoveries)
	}
	if string(out) != string(cleanOut) {
		t.Fatalf("recovered output not byte-identical to failure-free run (%d vs %d bytes)", len(out), len(cleanOut))
	}
	compareValues(t, parseOutput(t, out), want, "cc-after-recovery")
}

// TestClusterRecoverySkipsCorruptManifest kills a worker after a
// checkpoint committed and a manifest claiming -1 partitions was planted
// for a later superstep in the coordinator's store: recovery must skip
// it for the intact checkpoint and finish byte-identical to the
// failure-free run.
func TestClusterRecoverySkipsCorruptManifest(t *testing.T) {
	g := graphgen.BTC(260, 3, 7)
	clean := startKillableCluster(t, CoordinatorConfig{}, 2, 2, nil)
	_, cleanOut, err := runDistJob(t, clean.coord, "cc-clean@j1", "cc", g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	clean.coord.Close()

	var triggered atomic.Bool
	kc := (*killableCluster)(nil)
	builders := map[int]func(json.RawMessage) (*pregel.Job, error){}
	builders[1] = killerBuilder(func() {
		plantCorruptManifest(t, kc.coord.ckpt, "cc-corrupt@j1", corruptManifests["negative-partitions"])
		kc.kill(1)
	}, 3, &triggered)
	kc = startKillableCluster(t, CoordinatorConfig{}, 2, 2, builders)

	stats, out, err := runDistJob(t, kc.coord, "cc-corrupt@j1", "cc", g, 0, 2)
	if err != nil {
		t.Fatalf("job did not survive the kill: %v", err)
	}
	if !triggered.Load() || stats.Recoveries == 0 {
		t.Fatalf("triggered=%v recoveries=%d", triggered.Load(), stats.Recoveries)
	}
	if !bytes.Equal(out, cleanOut) {
		t.Fatalf("recovered output not byte-identical to failure-free run (%d vs %d bytes)", len(out), len(cleanOut))
	}
}

// TestStandbyAdoptionAfterKill parks a standby worker, kills an active
// worker mid-run, and requires the standby to be adopted (the
// "replaced" recovery path): the job completes with reference results
// and the cluster is back to full strength.
func TestStandbyAdoptionAfterKill(t *testing.T) {
	g := graphgen.Webmap(200, 4, 7)
	const iterations = 6
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", iterations), g)

	var triggered atomic.Bool
	kc := (*killableCluster)(nil)
	builders := map[int]func(json.RawMessage) (*pregel.Job, error){}
	builders[1] = killerBuilder(func() { kc.kill(1) }, 3, &triggered)
	kc = startKillableCluster(t, CoordinatorConfig{ReplaceWait: 30 * time.Second}, 2, 2, builders)

	// Park the replacement before the fault so adoption is immediate.
	kc.addWorker(t, 2, distTestBuilder)
	settleRecovery(t, "standby parked", func() (bool, string) {
		return kc.coord.Standbys() == 1, fmt.Sprintf("%d standbys", kc.coord.Standbys())
	})

	stats, out, err := runDistJob(t, kc.coord, "pr-standby@j1", "pagerank", g, iterations, 1)
	if err != nil {
		t.Fatalf("job did not survive the kill: %v", err)
	}
	if !triggered.Load() || stats.Recoveries == 0 {
		t.Fatalf("triggered=%v recoveries=%d", triggered.Load(), stats.Recoveries)
	}
	compareValues(t, parseOutput(t, out), want, "standby-recovery")

	var sawReplace bool
	for _, ev := range kc.coord.RecoveryEvents() {
		if ev.Kind == "replaced" {
			sawReplace = true
		}
	}
	if !sawReplace {
		t.Fatalf("no adoption event: %+v", kc.coord.RecoveryEvents())
	}
	if kc.coord.Workers() != 2 {
		t.Fatalf("live workers %d, want 2 after adoption", kc.coord.Workers())
	}
	if kc.coord.Standbys() != 0 {
		t.Fatalf("standbys %d, want 0 after adoption", kc.coord.Standbys())
	}

	// The repaired cluster runs the next job without any special help.
	_, out2, err := runDistJob(t, kc.coord, "pr-standby@j2", "pagerank", g, iterations, 0)
	if err != nil {
		t.Fatalf("job after repair: %v", err)
	}
	compareValues(t, parseOutput(t, out2), want, "post-repair")
}

// TestMissedHeartbeatDetection registers a worker that completes the
// handshake and then goes silent (hung process, dead NAT entry): the
// coordinator must declare it dead via missed heartbeats — not via a
// connection error, since the TCP connection stays open — and record
// the loss.
func TestMissedHeartbeatDetection(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{
		ListenAddr:        "127.0.0.1:0",
		Workers:           2,
		HeartbeatInterval: 30 * time.Millisecond,
		HeartbeatMisses:   2,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// One real worker.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	go func() {
		RunWorker(ctx, WorkerConfig{
			CCAddr: coord.Addr(), BaseDir: dir, Nodes: 1, BuildJob: distTestBuilder,
		})
	}()

	// One zombie: handshake, then silence.
	ctrl, err := wire.DialControl(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	reg, _ := json.Marshal(registerMsg{DataAddr: "127.0.0.1:1", Nodes: 1})
	if err := ctrl.Send(wire.Envelope{ID: 1, Method: "register", Data: reg}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Read(); err != nil { // the startMsg; then never answer again
		t.Fatal(err)
	}

	readyCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := coord.WaitReady(readyCtx); err != nil {
		t.Fatal(err)
	}

	settleRecovery(t, "zombie detection", func() (bool, string) {
		for _, ev := range coord.RecoveryEvents() {
			if ev.Kind == "worker-lost" && strings.Contains(ev.Detail, "heartbeat") {
				return true, ""
			}
		}
		return false, fmt.Sprintf("events: %+v", coord.RecoveryEvents())
	})
}

// TestManifestCommitAtomicity drives the checkpoint commit protocol
// directly against a replicated store: a "crash" after the partition
// images are written but before the manifest renames into place (the
// distributed analog: between worker acks and the coordinator's commit)
// must leave the previous committed checkpoint as the one recovery
// finds.
func TestManifestCommitAtomicity(t *testing.T) {
	base := t.TempDir()
	var nodes []*dfs.Datanode
	for i := 1; i <= 3; i++ {
		nodes = append(nodes, &dfs.Datanode{Name: fmt.Sprintf("d%d", i), Dir: filepath.Join(base, fmt.Sprintf("d%d", i))})
	}
	fs, err := dfs.New(nodes, dfs.Options{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}

	const prefix = "/pregelix/j/ckpt/"
	commit := func(ss int64) {
		dir := fmt.Sprintf("%sss%d", prefix, ss)
		m := &checkpointManifest{Superstep: ss, Partitions: 1, PartStats: []partStat{{
			NumVertices: ss, VertexFile: dir + "/vertex-p0", MsgFile: dir + "/msg-p0",
		}}}
		if err := fs.WriteFile(dir+"/vertex-p0", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteFile(dir+"/msg-p0", nil); err != nil {
			t.Fatal(err)
		}
		if err := commitManifest(fs, dir, m); err != nil {
			t.Fatal(err)
		}
	}
	commit(2)
	if m := latestManifest(fs, prefix); m == nil || m.Superstep != 2 {
		t.Fatalf("manifest after first commit: %+v", m)
	}

	// Superstep 4's checkpoint crashes mid-commit: data and the staged
	// manifest exist, but the rename never happened.
	dir4 := prefix + "ss4"
	if err := fs.WriteFile(dir4+"/vertex-p0", []byte("v4")); err != nil {
		t.Fatal(err)
	}
	m4 := &checkpointManifest{Superstep: 4, Partitions: 1, PartStats: []partStat{{NumVertices: 4}}}
	data, _ := json.Marshal(m4)
	if err := fs.WriteFile(dir4+"/manifest.json.tmp", data); err != nil {
		t.Fatal(err)
	}
	if m := latestManifest(fs, prefix); m == nil || m.Superstep != 2 {
		t.Fatalf("uncommitted checkpoint visible: %+v", m)
	}

	// Completing the rename makes superstep 4 the recovery point; the
	// swap also holds if a datanode directory is lost afterwards
	// (replication 2).
	if err := fs.Rename(dir4+"/manifest.json.tmp", dir4+"/manifest.json"); err != nil {
		t.Fatal(err)
	}
	if m := latestManifest(fs, prefix); m == nil || m.Superstep != 4 {
		t.Fatalf("manifest after completed commit: %+v", m)
	}
	fs.SetNodeDown("d1", true)
	if m := latestManifest(fs, prefix); m == nil || m.Superstep != 4 {
		t.Fatalf("manifest unreadable with one datanode down: %+v", m)
	}
}

// TestEnginesWriteTheSameCheckpoint runs connected components under one
// job name in process (2 nodes) and on a 2-worker cluster (a node each),
// and copies each run's superstep-2 checkpoint out while the run is live
// (both reclaim theirs at the end): the one writer must have written the
// same manifest — superstep, table, GS, every partition's counters and
// files — and the same vertex and msg images, byte for byte.
func TestEnginesWriteTheSameCheckpoint(t *testing.T) {
	g := graphgen.BTC(260, 3, 7)
	const name = "cc-ckpt@j1"
	dir := ckptPath(name, 2)
	grab := func(fs *dfs.FileSystem) (map[string][]byte, error) {
		files := make(map[string][]byte)
		for _, path := range fs.List(dir + "/") {
			data, err := fs.ReadFile(path)
			if err != nil {
				return nil, err
			}
			files[path] = data
		}
		return files, nil
	}

	rt, err := NewRuntime(Options{BaseDir: t.TempDir(), Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	job := algorithms.NewConnectedComponentsJob(name, "/in/g", "/out/cc")
	job.CheckpointEvery = 2
	var local map[string][]byte
	var grabErr error
	var once sync.Once
	inner := job.Program
	job.Program = pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		if ctx.Superstep() == 3 {
			once.Do(func() { local, grabErr = grab(rt.DFS) })
		}
		return inner.Compute(ctx, v, msgs)
	})
	if _, err := rt.Run(context.Background(), job); err != nil || grabErr != nil {
		t.Fatalf("in process: %v, %v", err, grabErr)
	}

	coord := startDistCluster(t, 2, 1)
	spec, _ := json.Marshal(distTestSpec{Algorithm: "cc", Input: "/in/g"})
	cjob, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	cjob.CheckpointEvery = 2
	var cluster map[string][]byte
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, _, err := coord.RunJob(ctx, DistSubmission{
		Name: name, Spec: spec, Job: cjob, InputPath: "/in/g", InputData: graphText(t, g),
		Progress: func(ss int64) {
			if ss == 3 {
				cluster, grabErr = grab(coord.ckpt)
			}
		},
	}); err != nil || grabErr != nil {
		t.Fatalf("on the cluster: %v, %v", err, grabErr)
	}

	var lm, cm checkpointManifest
	if err := errors.Join(json.Unmarshal(local[dir+"/manifest.json"], &lm), json.Unmarshal(cluster[dir+"/manifest.json"], &cm)); err != nil {
		t.Fatalf("no superstep-2 manifest: %v", err)
	}
	if !reflect.DeepEqual(lm, cm) || lm.BaseParts != 2 {
		t.Fatalf("manifests differ:\n in process %+v\n cluster    %+v", lm, cm)
	}
	if len(local) != len(cluster) || len(local) != 1+2*lm.Partitions {
		t.Fatalf("checkpoint files: %d in process, %d on the cluster, want %d", len(local), len(cluster), 1+2*lm.Partitions)
	}
	for path, data := range local {
		if !bytes.Equal(data, cluster[path]) {
			t.Fatalf("%s: %d bytes in process, %d on the cluster, and they differ", path, len(data), len(cluster[path]))
		}
	}
}

// FuzzManifest plants arbitrary bytes as a committed manifest.json and
// runs manifest discovery over them: it must never panic, and any
// manifest it returns must pass the validity check and route every
// sample vid, in finitely many redirects, to a partition of its table.
func FuzzManifest(f *testing.F) {
	fs, err := dfs.New([]*dfs.Datanode{{Name: "d1", Dir: f.TempDir()}}, dfs.Options{Replication: 1})
	if err != nil {
		f.Fatal(err)
	}
	good, _ := json.Marshal(checkpointManifest{Superstep: 4, Partitions: 6, BaseParts: 2,
		PartStats: make([]partStat, 6), Splits: []splitRec{{Parent: 1, First: 2, Children: 2}, {Parent: 2, First: 4, Children: 2}}})
	f.Add(good)
	f.Add([]byte(`{"superstep":9,"partitions":-1}`))
	f.Add([]byte(`{"superstep":9,"partitions":3,"partStats":[{},{},{}],"baseParts":2,"splits":[{"parent":0,"first":2,"children":0}]}`))
	f.Add([]byte(`{"superstep":9,"partitions":4,"partStats":[{},{},{},{}],"baseParts":2,"splits":[{"parent":3,"first":2,"children":2}]}`))
	const prefix = "/pregelix/fuzz/ckpt/"
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := fs.WriteFile(prefix+"ss1/manifest.json", data); err != nil {
			t.Fatal(err)
		}
		m := latestManifest(fs, prefix)
		if m == nil {
			return
		}
		if !m.valid() {
			t.Fatalf("latestManifest returned an invalid manifest: %+v", m)
		}
		base := m.BaseParts
		if base == 0 {
			base = m.Partitions
		}
		for _, vid := range []uint64{0, 1, 7, 1 << 20, 1<<63 + 5, ^uint64(0)} {
			if p := routeVertex(vid, base, m.Splits); p < 0 || p >= m.Partitions {
				t.Fatalf("vid %d routed to partition %d of %d", vid, p, m.Partitions)
			}
		}
	})
}

// TestRecoveryWithoutCheckpointFailsButClusterHeals kills a worker
// during an uncheckpointed job: the job must fail (nothing to rewind
// to), but the next submission must find a repaired, working cluster —
// the "permanently degraded cluster" failure mode this subsystem
// removes.
func TestRecoveryWithoutCheckpointFailsButClusterHeals(t *testing.T) {
	g := graphgen.Webmap(150, 3, 5)
	const iterations = 5
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", iterations), g)

	var triggered atomic.Bool
	kc := (*killableCluster)(nil)
	builders := map[int]func(json.RawMessage) (*pregel.Job, error){}
	builders[1] = killerBuilder(func() { kc.kill(1) }, 3, &triggered)
	kc = startKillableCluster(t, CoordinatorConfig{}, 2, 2, builders)

	if _, _, err := runDistJob(t, kc.coord, "pr-nockpt@j1", "pagerank", g, iterations, 0); err == nil {
		t.Fatal("uncheckpointed job survived a worker kill")
	}
	if !triggered.Load() {
		t.Fatal("failure was never injected")
	}

	// The next job heals the topology at submission time and completes.
	_, out, err := runDistJob(t, kc.coord, "pr-nockpt@j2", "pagerank", g, iterations, 0)
	if err != nil {
		t.Fatalf("cluster did not heal: %v", err)
	}
	compareValues(t, parseOutput(t, out), want, "healed-cluster")
	if kc.coord.Workers() != 1 {
		t.Fatalf("live workers %d, want 1", kc.coord.Workers())
	}
}
