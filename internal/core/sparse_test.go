package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pregelix/internal/delta"
	"pregelix/internal/graphgen"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// Tests of the relations a superstep produces — the next Msg run, the
// deferred vertex updates, the next Vid index — staying out of the file
// system until they outgrow a frame, and being no object at all when
// empty.

// relationFiles lists the files under root that belong to one of those
// three relations (other files: vertex indexes, DFS blocks, spill runs).
func relationFiles(root string) []string {
	var out []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // scratch files come and go under a running job
		}
		if n := d.Name(); !d.IsDir() && (strings.Contains(n, "msg-") || strings.Contains(n, "updates") || strings.HasPrefix(n, "vid-")) {
			out = append(out, path)
		}
		return nil
	})
	return out
}

// testRoot is the directory every t.TempDir of the test lives under:
// runtimes and cluster workers started by helpers keep their scratch
// directories there.
func testRoot(t *testing.T) string { return filepath.Dir(t.TempDir()) }

// watched wraps a job's program to call see(superstep) before every
// Compute: a look at the system from inside a running superstep.
func watched(job *pregel.Job, see func(ss int64)) {
	inner := job.Program
	job.Program = pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		see(ctx.Superstep())
		return inner.Compute(ctx, v, msgs)
	})
}

func exactValues(t *testing.T, got, want map[uint64]string, label string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		compareValues(t, got, want, label) // names the first difference
		t.Fatalf("%s: values differ from the reference in their last digits", label)
	}
}

// TestSparseSuperstepCreatesNoFiles: SSSP under the left-outer-join plan
// walks a chain with one message in flight. From inside Compute, at any
// superstep past the second, the node scratch directories hold the
// vertex indexes and nothing else; after the run they hold none of the
// per-superstep relations either.
func TestSparseSuperstepCreatesNoFiles(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.Chain(60, 0, 1)
	putGraph(t, rt, "/in/g", g)
	scratch := filepath.Join(rt.opts.BaseDir, "cluster")

	job := algorithms.NewSSSPJob("sparse", "/in/g", "/out/sparse", 1)
	var looks atomic.Int64
	watched(job, func(ss int64) {
		if ss < 3 {
			return
		}
		looks.Add(1)
		filepath.WalkDir(scratch, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && !strings.HasPrefix(d.Name(), "vertex-") {
				t.Errorf("superstep %d: %s exists", ss, path)
			}
			return nil
		})
	})
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if looks.Load() < 50 || stats.SuperstepStats[0].Plan != "fullouter" || stats.SuperstepStats[5].Plan != "leftouter" {
		t.Fatalf("%d looks at the scratch directories over %d supersteps (plans %s, %s)",
			looks.Load(), stats.Supersteps, stats.SuperstepStats[0].Plan, stats.SuperstepStats[5].Plan)
	}
	for _, st := range stats.SuperstepStats[:59] {
		if st.IOBytes == 0 {
			t.Fatalf("superstep %d reports no bytes through its runs", st.Superstep)
		}
	}
	if left := relationFiles(scratch); len(left) != 0 {
		t.Fatalf("left behind after the run: %v", left)
	}
	exactValues(t, readOutputValues(t, rt, "/out/sparse"),
		referenceValues(t, algorithms.NewSSSPJob("sssp", "", "", 1), g), "sparse sssp")
}

// boundaryGraph is a chain 1→…→head whose last vertex points at hubs
// vertices of fan leaves each; every leaf points at the first vertex of
// a second chain of tail vertices. SSSP from vertex 1 has one message in
// flight, then hubs, then hubs×fan, then one again: with enough leaves,
// each partition's Msg goes under, over and back under one frame.
func boundaryGraph(head, hubs, fan, tail int) *graphgen.Graph {
	g := &graphgen.Graph{Adj: map[uint64][]uint64{}}
	for i := 1; i < head; i++ {
		g.Adj[uint64(i)] = []uint64{uint64(i + 1)}
	}
	next := uint64(head + 1)
	first := next + uint64(hubs+hubs*fan)
	for h := 0; h < hubs; h++ {
		hub := next
		next++
		g.Adj[uint64(head)] = append(g.Adj[uint64(head)], hub)
		for l := 0; l < fan; l++ {
			g.Adj[hub] = append(g.Adj[hub], next)
			g.Adj[next] = []uint64{first}
			next++
		}
	}
	for i := 0; i < tail; i++ {
		g.Adj[first+uint64(i)] = nil
		if i < tail-1 {
			g.Adj[first+uint64(i)] = []uint64{first + uint64(i) + 1}
		}
	}
	return g
}

// sparseSpec is the job descriptor of these tests' clusters: the stock
// test spec plus the plan the job runs under.
type sparseSpec struct {
	distTestSpec
	Join string `json:"join"`
}

var sparsePlans = []string{"leftouter", "fullouter", "auto"}

// sparseBuilder builds sparseSpec jobs; wrap, if not nil, is applied to
// each built job (fault injection, a watcher).
func sparseBuilder(wrap func(*pregel.Job)) func(json.RawMessage) (*pregel.Job, error) {
	return func(raw json.RawMessage) (*pregel.Job, error) {
		var s sparseSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		job, err := distTestBuilder(raw)
		if err != nil {
			return nil, err
		}
		if err := job.ApplyHints(s.Join, "", ""); err != nil {
			return nil, err
		}
		if wrap != nil {
			wrap(job)
		}
		return job, nil
	}
}

// runSparseDist runs SSSP from vertex 1 on a cluster under the given
// plan and returns its stats and parsed output.
func runSparseDist(t *testing.T, coord *Coordinator, name, plan string, g *graphgen.Graph, ckptEvery int, progress func(int64)) (*JobStats, map[uint64]string) {
	t.Helper()
	spec, _ := json.Marshal(sparseSpec{distTestSpec{Algorithm: "sssp", Input: "/in/g", Source: 1}, plan})
	job, err := sparseBuilder(nil)(spec)
	if err != nil {
		t.Fatal(err)
	}
	job.CheckpointEvery = ckptEvery
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	stats, out, err := coord.RunJob(ctx, DistSubmission{
		Name: name + "@j1", Spec: spec, Job: job,
		InputPath: "/in/g", InputData: graphText(t, g),
		WantOutput: true, Progress: progress,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return stats, parseOutput(t, out)
}

// TestFrameBoundaryParity: results are identical to the reference
// whether a partition's Msg sits in memory or in its file, and across
// the change from one to the other in both directions, under every join
// plan, on the single-process runtime and on a 2-worker cluster. The
// msg-* files seen from inside Compute show the boundary was crossed.
func TestFrameBoundaryParity(t *testing.T) {
	// The leaves compute, their Msg past a frame, in superstep head+2.
	const head, hubs, fan, tail = 6, 40, 150, 6
	g := boundaryGraph(head, hubs, fan, tail)
	want := referenceValues(t, algorithms.NewSSSPJob("sssp", "", "", 1), g)
	var root string // each subtest's testRoot, set before it runs a job

	// msgFiles[ss] counts Msg files seen while superstep ss computed.
	var msgFiles [head + tail + 3]atomic.Int64
	watch := func(job *pregel.Job) {
		watched(job, func(ss int64) {
			if ss == 3 || ss == head+2 || ss == head+5 {
				msgFiles[ss].Store(0)
				for _, f := range relationFiles(root) {
					if strings.Contains(f, "msg-") {
						msgFiles[ss].Add(1)
					}
				}
			}
		})
	}
	crossed := func(t *testing.T, label string) {
		t.Helper()
		under, over, back := msgFiles[3].Swap(-1), msgFiles[head+2].Swap(-1), msgFiles[head+5].Swap(-1)
		if under != 0 || over == 0 || back != 0 {
			t.Fatalf("%s: %d Msg files at superstep 3, %d at %d, %d at %d; want none, some, none",
				label, under, over, head+2, back, head+5)
		}
	}

	t.Run("runtime", func(t *testing.T) {
		root = testRoot(t)
		rt := newTestRuntime(t, 2)
		defer rt.Close()
		putGraph(t, rt, "/in/g", g)
		for _, plan := range sparsePlans {
			job := algorithms.NewSSSPJob("boundary-"+plan, "/in/g", "/out/"+plan, 1)
			if err := job.ApplyHints(plan, "", ""); err != nil {
				t.Fatal(err)
			}
			watch(job)
			if _, err := rt.Run(context.Background(), job); err != nil {
				t.Fatalf("%s: %v", plan, err)
			}
			exactValues(t, readOutputValues(t, rt, "/out/"+plan), want, plan)
			crossed(t, plan)
		}
	})
	t.Run("cluster", func(t *testing.T) {
		root = testRoot(t)
		kc := startSparseCluster(t, 2, 1, tuple.CompressOff, func(int) func(json.RawMessage) (*pregel.Job, error) {
			return sparseBuilder(watch)
		})
		for _, plan := range sparsePlans {
			_, got := runSparseDist(t, kc.coord, "boundary-"+plan, plan, g, 0, nil)
			exactValues(t, got, want, "cluster "+plan)
			crossed(t, "cluster "+plan)
			if left := relationFiles(root); len(left) != 0 {
				t.Fatalf("cluster %s left behind: %v", plan, left)
			}
		}
	})
}

// startSparseCluster assembles a coordinator and killable workers of
// the given number of nodes, worker i building jobs with builder(i) and
// compressing its images and streams per mode.
func startSparseCluster(t *testing.T, workers, nodes int, mode tuple.CompressMode,
	builder func(worker int) func(json.RawMessage) (*pregel.Job, error)) *killableCluster {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{ListenAddr: "127.0.0.1:0", Workers: workers, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	kc := &killableCluster{coord: coord}
	for i := 0; i < workers; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		kc.kills = append(kc.kills, cancel)
		cfg := WorkerConfig{CCAddr: coord.Addr(), BaseDir: t.TempDir(), Nodes: nodes, BuildJob: builder(i), Compress: mode}
		go RunWorker(ctx, cfg)
	}
	readyCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := coord.WaitReady(readyCtx); err != nil {
		t.Fatalf("cluster never became ready: %v", err)
	}
	return kc
}

// TestRecoveryWithMsgInMemory: with a checkpoint after every superstep
// of a chain walk, each one images a Msg relation that exists only in
// memory. A machine lost in mid-walk is recovered from such an image to
// the result of a failure-free run: on the single-process runtime, and
// on a cluster (where the image crosses partition.send) with image
// compression off and on. A worker joining in mid-walk takes over such
// a partition without losing a superstep.
func TestRecoveryWithMsgInMemory(t *testing.T) {
	// Vertex 1 starts 16 chains of 40 vertices: 16 messages in flight, so
	// every partition has a few pending at every boundary.
	g := &graphgen.Graph{Adj: map[uint64][]uint64{}}
	for c := uint64(0); c < 16; c++ {
		g.Adj[1] = append(g.Adj[1], 2+c*40)
		for i := uint64(0); i < 40; i++ {
			g.Adj[2+c*40+i] = nil
			if i < 39 {
				g.Adj[2+c*40+i] = []uint64{3 + c*40 + i}
			}
		}
	}
	want := referenceValues(t, algorithms.NewSSSPJob("sssp", "", "", 1), g)
	const atStep = 20
	inMemory := func(t *testing.T, what string) {
		if files := relationFiles(testRoot(t)); len(files) != 0 {
			t.Errorf("%s with Msg, updates or Vid on disk: %v", what, files)
		}
	}

	t.Run("runtime", func(t *testing.T) {
		rt := newTestRuntime(t, 3)
		defer rt.Close()
		putGraph(t, rt, "/in/g", g)
		job := algorithms.NewSSSPJob("mem-recover", "/in/g", "/out/sssp", 1)
		job.CheckpointEvery = 1
		var triggered atomic.Bool
		watched(job, func(ss int64) {
			if ss >= atStep && triggered.CompareAndSwap(false, true) {
				inMemory(t, "node failure")
				rt.Cluster.Nodes()[2].Fail()
			}
		})
		stats, err := rt.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if !triggered.Load() || stats.Recoveries == 0 {
			t.Fatalf("triggered=%v recoveries=%d", triggered.Load(), stats.Recoveries)
		}
		exactValues(t, readOutputValues(t, rt, "/out/sssp"), want, "recovered")
	})

	for _, mode := range []tuple.CompressMode{tuple.CompressOff, tuple.CompressAuto} {
		t.Run(fmt.Sprintf("cluster-kill/compress=%v", mode), func(t *testing.T) {
			var triggered atomic.Bool
			var kc *killableCluster
			kc = startSparseCluster(t, 2, 1, mode, func(worker int) func(json.RawMessage) (*pregel.Job, error) {
				if worker != 1 {
					return sparseBuilder(nil)
				}
				return sparseBuilder(func(job *pregel.Job) {
					watched(job, func(ss int64) {
						if ss >= atStep && triggered.CompareAndSwap(false, true) {
							inMemory(t, "worker kill")
							kc.kill(1)
							// Let the dying connection surface at the coordinator
							// before this compute task unwinds.
							time.Sleep(100 * time.Millisecond)
						}
					})
				})
			})
			stats, got := runSparseDist(t, kc.coord, "mem-kill", "leftouter", g, 1, nil)
			if !triggered.Load() || stats.Recoveries == 0 {
				t.Fatalf("triggered=%v recoveries=%d", triggered.Load(), stats.Recoveries)
			}
			exactValues(t, got, want, "recovered")
		})
	}

	t.Run("cluster-scale-out", func(t *testing.T) {
		// Two nodes a worker: a joiner is given whole nodes.
		kc := startSparseCluster(t, 2, 2, tuple.CompressOff, func(int) func(json.RawMessage) (*pregel.Job, error) {
			return sparseBuilder(nil)
		})
		var joined atomic.Bool
		progress := func(ss int64) {
			if ss < atStep || !joined.CompareAndSwap(false, true) {
				return
			}
			inMemory(t, "scale-out")
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			go RunWorker(ctx, WorkerConfig{CCAddr: kc.coord.Addr(), BaseDir: t.TempDir(), Nodes: 1, BuildJob: sparseBuilder(nil), Elastic: true})
			for deadline := time.Now().Add(15 * time.Second); !kc.coord.pendingRebalance() && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
		}
		stats, got := runSparseDist(t, kc.coord, "mem-scale", "leftouter", g, 0, progress)
		if !joined.Load() || stats.Rebalances == 0 || stats.Recoveries != 0 {
			t.Fatalf("joined=%v rebalances=%d recoveries=%d", joined.Load(), stats.Rebalances, stats.Recoveries)
		}
		exactValues(t, got, want, "scaled")
	})
}

// TestMutationsWithoutVidIndex: under the left-outer-join plan, a
// partition all of whose vertices halted has no next Vid index by the
// time the superstep's mutations resolve. A vertex added to it must
// still be computed in the next superstep, and a vertex removed from
// such a partition needs no index to be removed from.
func TestMutationsWithoutVidIndex(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	// Vertex 1 keeps the job going through superstep 2; the removed and
	// the added vertex live in partitions other than its own.
	const parts, keep = 4, 1
	elsewhere := func(from uint64) uint64 {
		for delta.PartitionOf(from, parts) == delta.PartitionOf(keep, parts) {
			from++
		}
		return from
	}
	gone := elsewhere(2)
	added := elsewhere(gone + 1)
	putGraph(t, rt, "/in/g", &graphgen.Graph{Adj: map[uint64][]uint64{keep: nil, gone: nil}})

	job := &pregel.Job{
		Name: "mutate-novid",
		Program: pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			if ctx.Superstep() == 1 && v.ID == keep {
				nv := pregel.Int64(0)
				ctx.AddVertex(&pregel.Vertex{ID: pregel.VertexID(added), Value: &nv})
				ctx.RemoveVertex(pregel.VertexID(gone))
				return nil // stays live
			}
			if ctx.Superstep() == 2 && uint64(v.ID) == added {
				*v.Value.(*pregel.Int64) = 99
			}
			v.VoteToHalt()
			return nil
		}),
		Codec:      pregel.Codec{NewVertexValue: pregel.NewInt64, NewMessage: pregel.NewInt64},
		Join:       pregel.LeftOuterJoin,
		InputPath:  "/in/g",
		OutputPath: "/out/novid",
	}
	if _, err := rt.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	got := readOutputValues(t, rt, "/out/novid")
	if _, kept := got[gone]; kept || got[added] != "99" || len(got) != 2 {
		t.Fatalf("result %v; want vertex %d gone and the added vertex %d computed to 99", got, gone, added)
	}
}

// TestSuperstepOneRefusesToProbe: no Vid index exists before the first
// scan has built one, so a driver naming the left-outer-join plan for
// superstep 1 (one older than the rule in chooseJoinFor) gets an error,
// not a superstep that computes nothing and a job that halts after it.
// So does one naming AutoJoin, which the driver must resolve first.
func TestSuperstepOneRefusesToProbe(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", graphgen.Chain(10, 0, 1))
	rs := rt.newRunState(algorithms.NewSSSPJob("probe-first", "/in/g", "", 1), rt.opts.Exec, tenancy{})
	defer rs.cleanup()
	if err := rs.load(context.Background()); err != nil {
		t.Fatal(err)
	}
	gs := seedGS(0, rs.partCounts())
	gs.LiveVertices = gs.NumVertices
	if _, err := rs.runSuperstep(context.Background(), &superstepMsg{SS: 1, GS: gs, Join: pregel.LeftOuterJoin}); err == nil {
		t.Fatal("superstep 1 ran under the left-outer-join plan")
	}
	if _, err := rs.runSuperstep(context.Background(), &superstepMsg{SS: 1, GS: gs, Join: pregel.AutoJoin}); err == nil {
		t.Fatal("the superstep verb ran an unresolved join")
	}
	if _, err := rs.runSuperstep(context.Background(), &superstepMsg{SS: 1, GS: gs, Join: pregel.FullOuterJoin}); err != nil {
		t.Fatal(err)
	}
}

// openDescriptors counts this process's open file descriptors on files
// under dir (unlinked ones included), which no other test's sockets or
// files come and go among.
func openDescriptors(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to count: %v", err)
	}
	if dir, err = filepath.EvalSymlinks(dir); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestRefusedImageStrandsNoVidIndex: the Vid index an install builds
// beside the vertex index is dropped when the image is refused, whichever
// stream the refusal comes from — not left open under a temp name for
// the life of the worker.
func TestRefusedImageStrandsNoVidIndex(t *testing.T) {
	fx := newImageFixture(t)
	fx.rs.job.Join = pregel.LeftOuterJoin
	ps := fx.rs.parts[0]
	good, err := snapshotPartition(ps, tuple.CompressOff)
	if err != nil {
		t.Fatal(err)
	}
	fx.rs.dropOnePartition(ps)
	fds := openDescriptors(t, fx.rs.rt.opts.BaseDir)
	for i, bad := range [][2][]byte{
		{good.Vertex[:len(good.Vertex)-5], good.Msg},
		{append(append([]byte(nil), good.Vertex...), oneFieldImage...), good.Msg},
		{good.Vertex, shortKeyImage},
		{good.Vertex, good.Msg[:len(good.Msg)-3]},
		{good.Vertex[:len(good.Vertex)/2], nil},
	} {
		if err := fx.rs.installImage(ps, &ckptPartData{Part: 0, Vertex: bad[0], Msg: bad[1]}); err == nil {
			t.Fatalf("malformed image %d installed", i)
		}
		fx.rs.dropOnePartition(ps)
	}
	for _, f := range relationFiles(fx.rs.rt.opts.BaseDir) {
		if strings.HasPrefix(filepath.Base(f), "vid-") {
			t.Errorf("refused installs left %s behind", f)
		}
	}
	if now := openDescriptors(t, fx.rs.rt.opts.BaseDir); now != fds {
		t.Fatalf("%d descriptors open after the refused installs, %d before", now, fds)
	}
	if err := fx.rs.installImage(ps, &good); err != nil || ps.vid == nil {
		t.Fatalf("good image after the bad ones: %v (vid index %v)", err, ps.vid)
	}
}

// countingIndex is a vertex index that only counts what is inserted, so
// that a measurement over it is one of the code feeding it.
type countingIndex struct {
	storage.Index
	records, bytes int
}

func (c *countingIndex) Insert(key, value []byte) error {
	c.records++
	c.bytes += len(key) + len(value)
	return nil
}

// TestApplyUpdatesAllocations: replaying a superstep's deferred vertex
// updates reads them in place. The boxed read it replaces allocated
// three times per updated vertex — every vertex, every superstep, in
// PageRank.
func TestApplyUpdatesAllocations(t *testing.T) {
	const n = 5000 // several frames: the run is read from its file
	updates := storage.NewRunFile(filepath.Join(t.TempDir(), "updates"))
	defer updates.Delete()
	for i := 0; i < n; i++ {
		if err := updates.AppendFields(tuple.EncodeUint64(uint64(i)), []byte("an encoded vertex record")); err != nil {
			t.Fatal(err)
		}
	}
	if err := updates.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	var idx countingIndex
	allocs := testing.AllocsPerRun(5, func() {
		idx = countingIndex{}
		if err := applyUpdates(&idx, updates); err != nil {
			t.Fatal(err)
		}
	})
	if idx.records != n || int64(idx.bytes) != updates.PayloadBytes() {
		t.Fatalf("replayed %d records, %d bytes; the run holds %d, %d", idx.records, idx.bytes, n, updates.PayloadBytes())
	}
	if perUpdate := allocs / n; perUpdate >= 0.1 {
		t.Fatalf("%.0f allocations to replay %d updates (%.3f each), want under 0.1", allocs, n, perUpdate)
	}
}

// BenchmarkSparseSuperstep is the per-superstep fixed cost: SSSP under
// the left-outer-join plan down a chain on a 2-node runtime, one message
// in flight, so nearly every superstep computes one vertex.
func BenchmarkSparseSuperstep(b *testing.B) {
	const chain = 2000
	rt, err := NewRuntime(Options{BaseDir: b.TempDir(), Nodes: 2, PartitionsPerNode: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, graphgen.Chain(chain, 0, 1)); err != nil {
		b.Fatal(err)
	}
	if err := rt.DFS.WriteFile("/in/g", buf.Bytes()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var supersteps int64
	var running time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := rt.Run(context.Background(), algorithms.NewSSSPJob("bench", "/in/g", "", 1))
		if err != nil {
			b.Fatal(err)
		}
		supersteps += stats.Supersteps
		running += stats.RunDuration
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(running.Microseconds())/float64(supersteps), "µs/superstep")
	// Everything the job allocated, its load included, over its supersteps.
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(supersteps), "B/superstep")
}

// BenchmarkSparseSuperstepCluster is BenchmarkSparseSuperstep's chain on
// a coordinator and 2 in-process workers of one node each, over loopback
// TCP: the cluster's per-superstep floor, which adds the superstep verb's
// fan-out and barrier and each round's wire streams to the dataflow.
func BenchmarkSparseSuperstepCluster(b *testing.B) {
	const chain = 2000
	coord := startDistCluster(b, 2, 1)
	spec, _ := json.Marshal(distTestSpec{Algorithm: "sssp", Input: "/in/g", Source: 1})
	data := graphText(b, graphgen.Chain(chain, 0, 1))
	b.ReportAllocs()
	var supersteps int64
	var running time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := distTestBuilder(spec)
		if err != nil {
			b.Fatal(err)
		}
		stats, _, err := coord.RunJob(context.Background(), DistSubmission{
			Name: fmt.Sprintf("bench@j%d", i+1), Spec: spec, Job: job, InputPath: "/in/g", InputData: data,
		})
		if err != nil {
			b.Fatal(err)
		}
		supersteps += stats.Supersteps
		running += stats.RunDuration
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(running.Microseconds())/float64(supersteps), "µs/superstep")
	// Everything the coordinator and both workers allocated, over the
	// supersteps.
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(supersteps), "B/superstep")
}
