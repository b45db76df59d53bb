package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/internal/reference"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// BenchmarkVertexPass is the per-vertex cost of a dense superstep:
// PageRank under the full-outer-join plan on a 2-node runtime, every
// vertex scanned, computed and written back every superstep.
func BenchmarkVertexPass(b *testing.B) {
	const vertices, iterations = 20000, 5
	rt, err := NewRuntime(Options{BaseDir: b.TempDir(), Nodes: 2, PartitionsPerNode: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, graphgen.Webmap(vertices, 8, 1)); err != nil {
		b.Fatal(err)
	}
	if err := rt.DFS.WriteFile("/in/g", buf.Bytes()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var passed int64 // vertices through Compute
	var running int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := rt.Run(context.Background(), algorithms.NewPageRankJob("bench", "/in/g", "", iterations))
		if err != nil {
			b.Fatal(err)
		}
		passed += stats.Supersteps * vertices
		running += stats.RunDuration.Nanoseconds()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(running)/float64(passed), "ns/vertex")
	// Everything the supersteps allocated, the group-by and the shuffle
	// behind the vertex pass included; the job's load is in there too.
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(passed), "allocs/vertex")
}

// reshapeSupersteps is how long the reshape programs run.
const reshapeSupersteps = 6

// reshape is a program whose records change size in every direction
// within one superstep: each vertex folds its messages into its value
// (which therefore depends on every earlier superstep having been
// applied exactly once) and, by vid and superstep, keeps its edges,
// drops one or appends one — sometimes to a vertex that does not exist,
// which a message then creates. Integer arithmetic throughout: results
// are exact, whatever the order messages combine in.
func reshape(n uint64, misbehave bool) pregel.Program {
	return pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
		ss, id := uint64(ctx.Superstep()), uint64(v.ID)
		var sum int64
		for _, m := range msgs {
			sum += int64(*m.(*pregel.Int64))
		}
		next := pregel.Int64(sum + int64(id) - int64(*v.Value.(*pregel.Int64)))
		if misbehave && len(msgs) > 0 {
			// Within the old contract (every Value a Compute saw was its
			// own): adopt a message as the vertex value.
			*msgs[0].(*pregel.Int64) = next
			v.Value = msgs[0]
		} else {
			*v.Value.(*pregel.Int64) = next
		}
		switch (id + ss) % 3 {
		case 1:
			if len(v.Edges) > 1 {
				v.Edges = v.Edges[:len(v.Edges)-1]
			}
		case 2:
			dest := (id*7+ss)%n + 1
			if id%11 == 0 {
				dest += n // not in the graph
			}
			v.AddEdge(pregel.VertexID(dest), nil)
		}
		if misbehave {
			// Also within it: give some edges Values of the program's own
			// (the record grows by 8 bytes an edge), take some away again
			// and leave the rest as they were decoded.
			for i := range v.Edges {
				switch (id + ss + uint64(i)) % 3 {
				case 0:
					w := pregel.Int64(int64(ss))
					v.Edges[i].Value = &w
				case 1:
					v.Edges[i].Value = nil
				}
			}
		}
		if ss >= reshapeSupersteps {
			v.VoteToHalt()
			return nil
		}
		for _, e := range v.Edges {
			m := pregel.Int64(int64(next)%1000 + int64(e.Dest))
			if w, ok := e.Value.(*pregel.Int64); ok {
				m += *w
			}
			ctx.SendMessage(e.Dest, &m)
		}
		return nil
	})
}

func newReshapeJob(name, input, output string, n uint64, misbehave bool, storage pregel.StorageKind) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: reshape(n, misbehave),
		Codec:   pregel.Codec{NewVertexValue: pregel.NewInt64, NewEdgeValue: pregel.NewInt64, NewMessage: pregel.NewInt64},
		Combiner: pregel.CombinerFunc(func(a, b pregel.Value) pregel.Value {
			*a.(*pregel.Int64) += *b.(*pregel.Int64)
			return a
		}),
		Join:       pregel.FullOuterJoin,
		Storage:    storage,
		InputPath:  input,
		OutputPath: output,
	}
}

// dumpLines renders a dump as its sorted lines (value and edges both).
func dumpLines(data []byte) []string {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	sort.Strings(lines)
	return lines
}

func referenceLines(t *testing.T, job *pregel.Job, g *graphgen.Graph) []string {
	t.Helper()
	eng := reference.NewFromGraph(job, g)
	if _, err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, v := range eng.Vertices() {
		lines = append(lines, pregel.FormatVertexLine(v))
	}
	sort.Strings(lines)
	return lines
}

func sameLines(t *testing.T, got, want []string, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vertices, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d is %q, want %q", label, i, got[i], want[i])
		}
	}
}

// TestVertexUpdateParity: under the full-outer-join plan a vertex update
// is written at the scan's cursor when it fits and deferred when it does
// not (always, on the LSM tree). Programs that leave records the same
// size, shrink them, grow them and create vertices by message, all in
// one superstep, give the oracle's dump byte for byte on both trees, on
// the single-process runtime and on a 2-worker cluster — also when they
// replace v.Value and edge Values with Values of their own, which the
// engine's reused vertex must not carry into the next record.
func TestVertexUpdateParity(t *testing.T) {
	const n = 600
	g := graphgen.Webmap(n, 4, 3)
	type variant struct {
		name      string
		misbehave bool
		storage   pregel.StorageKind
	}
	var variants []variant
	for _, misbehave := range []bool{false, true} {
		for _, st := range []pregel.StorageKind{pregel.BTreeStorage, pregel.LSMStorage} {
			variants = append(variants, variant{fmt.Sprintf("misbehave=%v/%v", misbehave, st), misbehave, st})
		}
	}
	want := map[bool][]string{}
	for _, misbehave := range []bool{false, true} {
		want[misbehave] = referenceLines(t, newReshapeJob("ref", "", "", n, misbehave, pregel.BTreeStorage), g)
		if len(want[misbehave]) <= n {
			t.Fatalf("the oracle ends with %d vertices: no message created one", len(want[misbehave]))
		}
	}

	t.Run("runtime", func(t *testing.T) {
		rt := newTestRuntime(t, 2)
		defer rt.Close()
		putGraph(t, rt, "/in/g", g)
		for _, v := range variants {
			out := "/out/" + v.name
			stats, err := rt.Run(context.Background(), newReshapeJob("reshape", "/in/g", out, n, v.misbehave, v.storage))
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			data, err := rt.DFS.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			sameLines(t, dumpLines(data), want[v.misbehave], v.name)
			if stats.Supersteps != reshapeSupersteps {
				t.Fatalf("%s: %d supersteps", v.name, stats.Supersteps)
			}
			for _, node := range rt.Cluster.Nodes() {
				if pins := node.BufferCache.PinnedFrames(); pins != 0 {
					t.Fatalf("%s: %d frames pinned on %s after the job", v.name, pins, node.ID)
				}
			}
		}
	})
	t.Run("cluster", func(t *testing.T) {
		// The spec a worker builds its job from is the variant's index.
		build := func(raw json.RawMessage) (*pregel.Job, error) {
			var i int
			if err := json.Unmarshal(raw, &i); err != nil {
				return nil, err
			}
			return newReshapeJob("reshape", "/in/g", "", n, variants[i].misbehave, variants[i].storage), nil
		}
		kc := startSparseCluster(t, 2, 1, tuple.CompressOff, func(int) func(json.RawMessage) (*pregel.Job, error) { return build })
		for i, v := range variants {
			spec, _ := json.Marshal(i)
			job, _ := build(spec)
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			_, out, err := kc.coord.RunJob(ctx, DistSubmission{
				Name: fmt.Sprintf("reshape-%d@j1", i), Spec: spec, Job: job,
				InputPath: "/in/g", InputData: graphText(t, g), WantOutput: true,
			})
			cancel()
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			sameLines(t, dumpLines(out), want[v.misbehave], "cluster "+v.name)
		}
	})
}

// TestVertexUpdateIOBytes: IOBytes counts payload through the run layer,
// and an update written at the cursor never goes there. PageRank's
// records keep their size, so on the B-tree a superstep's IOBytes are its
// Msg relation's and nothing else (the graph is too small for the
// group-by to spill); on the LSM tree every update is deferred, written
// to the spool and read back, on top of that.
func TestVertexUpdateIOBytes(t *testing.T) {
	const iterations = 4
	g := graphgen.Webmap(500, 5, 9)
	var receivers, updateBytes int64 // vertices with an in-edge; Σ (vid + record)
	indeg := map[uint64]bool{}
	for _, dests := range g.Adj {
		updateBytes += 8 + 17 + 12*int64(len(dests))
		for _, d := range dests {
			indeg[d] = true
		}
	}
	receivers = int64(len(indeg))
	const msgTuple = 8 + 4 + 4 + 8 // vid, a list of one Double

	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	io := map[pregel.StorageKind][]int64{}
	for _, st := range []pregel.StorageKind{pregel.BTreeStorage, pregel.LSMStorage} {
		job := algorithms.NewPageRankJob("pr-"+st.String(), "/in/g", "", iterations)
		job.Storage = st
		stats, err := rt.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		for _, ss := range stats.SuperstepStats {
			io[st] = append(io[st], ss.IOBytes)
		}
	}
	for i := 0; i < iterations; i++ {
		msgBytes := receivers * msgTuple
		if i == iterations-1 {
			msgBytes = 0 // the last iteration sends nothing
		}
		if got := io[pregel.BTreeStorage][i]; got != msgBytes {
			t.Errorf("B-tree, superstep %d: IOBytes = %d, want the Msg relation's %d (nothing deferred)", i+1, got, msgBytes)
		}
		if got, want := io[pregel.LSMStorage][i], msgBytes+2*updateBytes; got != want {
			t.Errorf("LSM, superstep %d: IOBytes = %d, want %d (every update spooled and read back)", i+1, got, want)
		}
	}
}

// TestVertexPassAllocations: the compute task of a dense PageRank
// superstep — scan, message read, decode, Compute, encode, write-back —
// allocates nothing per vertex or message of its own. What is left is
// PageRank's: one escaping share per vertex that sends.
func TestVertexPassAllocations(t *testing.T) {
	const n = 6000 // a few hundred leaves; the Msg run is read from its file
	node, err := hyracks.NewNodeController("n0", t.TempDir(), hyracks.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	job := algorithms.NewPageRankJob("allocs", "", "", 10)
	bt, err := storage.CreateBTree(node.BufferCache, filepath.Join(t.TempDir(), "vertex"))
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Drop()
	loader, _ := bt.NewBulkLoader(0.9)
	msg := storage.NewRunFile(filepath.Join(t.TempDir(), "msg"))
	defer msg.Delete()
	rank := pregel.Double(1.0 / n)
	senders := 0
	for i := uint64(0); i < n; i++ {
		v := &pregel.Vertex{Value: &rank}
		if i%3 != 0 { // every third page is dangling
			senders++
			for e := uint64(1); e <= 6; e++ {
				v.AddEdge(pregel.VertexID((i+e*e)%n), nil)
			}
		}
		key := tuple.EncodeUint64(i)
		if err := loader.Add(key, job.Codec.EncodeVertex(v)); err != nil {
			t.Fatal(err)
		}
		if err := msg.AppendFields(key, pregel.EncodeMsgList(&rank)); err != nil {
			t.Fatal(err)
		}
	}
	if err := loader.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := msg.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	ps := &partitionState{node: node, vertexIdx: storage.AsIndex(bt), msg: msg, msgs: n, numVertices: n}
	rs := &runState{job: job, codec: &job.Codec, parts: []*partitionState{ps},
		gs: globalState{Superstep: 1, NumVertices: n, LiveVertices: n, Messages: n}}
	tc := &hyracks.TaskContext{Node: node, JobName: "allocs", OperatorID: "compute"}
	// No output is connected: what Compute sends is encoded and dropped.
	allocs := testing.AllocsPerRun(5, func() {
		c := &computeSource{rs: rs, ss: 2, tc: tc, join: pregel.FullOuterJoin}
		if err := c.run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if ps.liveVertices != n {
		t.Fatalf("%d of %d vertices computed", ps.liveVertices, n)
	}
	if v, err := bt.Search(tuple.EncodeUint64(1)); err != nil || v[0] != 0 || bytes.Equal(v[5:13], rank.Marshal(nil)) {
		t.Fatalf("vertex 1 was not updated in the tree: %x, %v", v, err)
	}
	if pins := node.BufferCache.PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames pinned", pins)
	}
	per := allocs / (2 * n)
	own := (allocs - float64(senders)) / (2 * n)
	t.Logf("%.0f allocations for %d vertices + %d messages: %.3f each, %.4f each without PageRank's own", allocs, n, n, per, own)
	if per >= 0.5 || own >= 0.05 {
		t.Fatalf("%.3f allocations per vertex + message (%.4f without PageRank's own %d), want under 0.5 (0.05)", per, own, senders)
	}
}

// TestRecoveryDiscardsHalfUpdatedRelation: a machine lost in mid-scan
// leaves vertex relations some of whose records already hold the failed
// superstep's values (written at the cursor), as a half-applied spool
// did before. The property relied on is that recovery never resumes
// from such a relation: restore replaces every partition with its
// checkpoint image, so the re-run superstep starts from the committed
// state and the result is the failure-free run's. reshape's values
// depend on each superstep being applied exactly once; PageRank's would
// hide a double application (a rank is recomputed from messages alone),
// so it is checked against the oracle for the restore itself.
func TestRecoveryDiscardsHalfUpdatedRelation(t *testing.T) {
	const n = 900
	g := graphgen.Webmap(n, 4, 5)
	for name, tc := range map[string]struct {
		job   func(out string) *pregel.Job
		exact bool
	}{
		"reshape": {func(out string) *pregel.Job {
			return newReshapeJob("reshape", "/in/g", out, n, false, pregel.BTreeStorage)
		}, true},
		"pagerank": {func(out string) *pregel.Job { return algorithms.NewPageRankJob("pr", "/in/g", out, 6) }, false},
	} {
		t.Run(name, func(t *testing.T) {
			rt := newTestRuntime(t, 3)
			defer rt.Close()
			putGraph(t, rt, "/in/g", g)
			if _, err := rt.Run(context.Background(), tc.job("/out/clean")); err != nil {
				t.Fatal(err)
			}
			job := tc.job("/out/recovered")
			job.CheckpointEvery = 1
			var computed atomic.Int64
			var triggered atomic.Bool
			watched(job, func(ss int64) {
				// Well into superstep 4's scans: every partition has written
				// some of its records back by now.
				if ss == 4 && computed.Add(1) == n/2 && triggered.CompareAndSwap(false, true) {
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
			clean, _ := rt.DFS.ReadFile("/out/clean")
			recovered, _ := rt.DFS.ReadFile("/out/recovered")
			if tc.exact {
				sameLines(t, dumpLines(recovered), dumpLines(clean), "recovered vs failure-free")
				sameLines(t, dumpLines(recovered), referenceLines(t, tc.job(""), g), "recovered vs oracle")
			} else {
				compareValues(t, parseOutput(t, recovered), parseOutput(t, clean), "recovered vs failure-free")
				compareValues(t, parseOutput(t, recovered), referenceValues(t, tc.job(""), g), "recovered vs oracle")
			}
		})
	}
}
