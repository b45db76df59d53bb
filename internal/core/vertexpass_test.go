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

// BenchmarkProbePass is the per-vertex cost of a sparse superstep, the
// left-outer-join sibling of BenchmarkVertexPass: SSSP on a 2-node
// runtime, where past superstep 1 (which always scans) every superstep
// probes the vertex index for its few live or addressed vertices. Time
// and allocations are per probed vertex; the time is the probing
// supersteps', the allocations the whole job's.
func BenchmarkProbePass(b *testing.B) {
	const vertices = 20000
	rt, err := NewRuntime(Options{BaseDir: b.TempDir(), Nodes: 2, PartitionsPerNode: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, graphgen.BTC(vertices, 4, 1)); err != nil {
		b.Fatal(err)
	}
	if err := rt.DFS.WriteFile("/in/g", buf.Bytes()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var probed, probing int64 // vertices through Compute past superstep 1; those supersteps' time
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := algorithms.NewSSSPJob("bench", "/in/g", "", 1)
		var computed atomic.Int64
		watched(job, func(ss int64) {
			if ss > 1 {
				computed.Add(1)
			}
		})
		stats, err := rt.Run(context.Background(), job)
		if err != nil {
			b.Fatal(err)
		}
		for _, ss := range stats.SuperstepStats {
			if ss.Superstep > 1 {
				if ss.Plan != pregel.LeftOuterJoin.String() {
					b.Fatalf("superstep %d ran the %s plan", ss.Superstep, ss.Plan)
				}
				probing += ss.Duration.Nanoseconds()
			}
		}
		probed += computed.Load()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(probing)/float64(probed), "ns/probe")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(probed), "allocs/probe")
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

func newReshapeJob(name, input, output string, n uint64, misbehave bool) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: reshape(n, misbehave),
		Codec:   pregel.Codec{NewVertexValue: pregel.NewInt64, NewEdgeValue: pregel.NewInt64, NewMessage: pregel.NewInt64},
		Combiner: pregel.CombinerFunc(func(a, b pregel.Value) pregel.Value {
			*a.(*pregel.Int64) += *b.(*pregel.Int64)
			return a
		}),
		Join:       pregel.FullOuterJoin,
		InputPath:  input,
		OutputPath: output,
	}
}

// dumpLines renders a dump as its sorted lines (value and edges both).
// Only the final newline is cut: a last line with an empty value and no
// edges ends in tabs of its own.
func dumpLines(data []byte) []string {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
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

// TestVertexUpdateParity: under either join plan a vertex update is
// written at the cursor (the full-outer scan's, the left-outer probe's)
// when it fits and deferred when it does not. Programs that leave
// records the same size, shrink them, grow them and create vertices by
// message, all in one superstep, give the oracle's dump byte for byte,
// under the full-outer, left-outer and
// planner-chosen joins, on the single-process runtime and on a 2-worker
// cluster — also when they replace v.Value and edge Values with Values of
// their own, which the engine's reused vertex must not carry into the
// next record.
func TestVertexUpdateParity(t *testing.T) {
	const n = 600
	g := graphgen.Webmap(n, 4, 3)
	type variant struct {
		name      string
		misbehave bool
		join      pregel.JoinKind
	}
	var variants []variant
	for _, join := range []pregel.JoinKind{pregel.FullOuterJoin, pregel.LeftOuterJoin, pregel.AutoJoin} {
		for _, misbehave := range []bool{false, true} {
			variants = append(variants, variant{fmt.Sprintf("%v/misbehave=%v", join, misbehave), misbehave, join})
		}
	}
	reshapeJob := func(output string, v variant) *pregel.Job {
		job := newReshapeJob("reshape", "/in/g", output, n, v.misbehave)
		job.Join = v.join
		return job
	}
	want := map[bool][]string{}
	for _, misbehave := range []bool{false, true} {
		want[misbehave] = referenceLines(t, newReshapeJob("ref", "", "", n, misbehave), g)
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
			stats, err := rt.Run(context.Background(), reshapeJob(out, v))
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
			return reshapeJob("", variants[i]), nil
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
// and an update written at the cursor never goes there, whether the
// full-outer scan or the left-outer probe put the cursor on the record.
// PageRank's records keep their size, so a superstep's IOBytes are its
// Msg relation's and nothing else (the graph is too small for the
// group-by to spill). A program that sends PageRank's messages but grows
// its value by a byte every superstep has every update deferred: written
// to the spool and read back, on top of that.
func TestVertexUpdateIOBytes(t *testing.T) {
	const iterations = 4
	g := graphgen.Webmap(500, 5, 9)
	indeg := map[uint64]bool{}
	for _, dests := range g.Adj {
		for _, d := range dests {
			indeg[d] = true
		}
	}
	receivers := int64(len(indeg)) // vertices with an in-edge
	// A Msg tuple is a vid and the job's payload of one message.
	msgTuple := func(job *pregel.Job) int64 {
		return 8 + int64(len(appendPayload(job, nil, job.Codec.NewMessage())))
	}

	// grow sends what PageRank sends, one Double an edge until the last
	// superstep, and appends the superstep to its Bytes value.
	grow := pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
		val := v.Value.(*pregel.Bytes)
		*val = append(*val, byte(ctx.Superstep()))
		if ctx.Superstep() >= iterations {
			v.VoteToHalt()
			return nil
		}
		share := pregel.Double(1)
		for _, e := range v.Edges {
			ctx.SendMessage(e.Dest, &share)
		}
		return nil
	})
	// grownBytes is Σ (vid + record) over the graph once every value
	// holds ss bytes: what superstep ss defers.
	grownBytes := func(job *pregel.Job, ss int) int64 {
		var sum int64
		for id, dests := range g.Adj {
			val := pregel.Bytes(make([]byte, ss))
			v := &pregel.Vertex{ID: pregel.VertexID(id), Value: &val}
			for _, d := range dests {
				v.AddEdge(pregel.VertexID(d), nil)
			}
			sum += 8 + int64(len(job.Codec.EncodeVertex(v)))
		}
		return sum
	}

	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	for _, join := range []pregel.JoinKind{pregel.FullOuterJoin, pregel.LeftOuterJoin} {
		for _, program := range []string{"pagerank", "grow"} {
			job := algorithms.NewPageRankJob(program, "/in/g", "", iterations)
			if program == "grow" {
				job.Program = grow
				job.Codec.NewVertexValue = pregel.NewBytes
			}
			job.Join = join
			stats, err := rt.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if len(stats.SuperstepStats) != iterations {
				t.Fatalf("%v, %s: %d supersteps, want %d", join, program, len(stats.SuperstepStats), iterations)
			}
			for i, ss := range stats.SuperstepStats {
				if ss.Superstep > 1 && ss.Plan != join.String() { // superstep 1 always scans
					t.Fatalf("superstep %d ran the %s plan, want %v", ss.Superstep, ss.Plan, join)
				}
				want := receivers * msgTuple(job)
				if i == iterations-1 {
					want = 0 // the last iteration sends nothing
				}
				if program == "grow" {
					want += 2 * grownBytes(job, i+1)
				}
				if ss.IOBytes != want {
					t.Errorf("%v, %s, superstep %d: IOBytes = %d, want %d (the Msg relation's, and every grown update spooled and read back)",
						join, program, i+1, ss.IOBytes, want)
				}
			}
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
		if err := msg.AppendFields(key, appendPayload(job, nil, &rank)); err != nil {
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

// TestProbePassAllocations: the compute task of a sparse superstep under
// the left-outer-join plan — message and Vid reads, the choose-merge, the
// probe, decode, Compute, encode, write-back and the next Vid index —
// allocates nothing per probed vertex or message of its own. PageRank
// stands in for the program: every probed vertex computes and sends, and
// what is left is its one escaping share per vertex that sends.
func TestProbePassAllocations(t *testing.T) {
	const n = 6000 // a few hundred leaves; the Msg run is read from its file
	node, err := hyracks.NewNodeController("n0", t.TempDir(), hyracks.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	job := algorithms.NewPageRankJob("allocs", "", "", 10)
	job.Join = pregel.LeftOuterJoin
	bt, err := storage.CreateBTree(node.BufferCache, filepath.Join(t.TempDir(), "vertex"))
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Drop()
	vid, err := storage.CreateBTree(node.BufferCache, filepath.Join(t.TempDir(), "vid"))
	if err != nil {
		t.Fatal(err)
	}
	defer vid.Drop()
	loader, _ := bt.NewBulkLoader(0.9)
	vidLoader, _ := vid.NewBulkLoader(1.0)
	msg := storage.NewRunFile(filepath.Join(t.TempDir(), "msg"))
	defer msg.Delete()
	rank := pregel.Double(1.0 / n)
	probed, messages, senders := 0, 0, 0
	for i := uint64(0); i < n; i++ {
		v := &pregel.Vertex{Value: &rank}
		if i%5 != 0 { // every fifth page is dangling
			for e := uint64(1); e <= 6; e++ {
				v.AddEdge(pregel.VertexID((i+e*e)%n), nil)
			}
		}
		key := tuple.EncodeUint64(i)
		if err := loader.Add(key, job.Codec.EncodeVertex(v)); err != nil {
			t.Fatal(err)
		}
		live, addressed := i%4 == 0, i%3 == 0
		if live {
			if err := vidLoader.Add(key, nil); err != nil {
				t.Fatal(err)
			}
		}
		if addressed {
			messages++
			if err := msg.AppendFields(key, appendPayload(job, nil, &rank)); err != nil {
				t.Fatal(err)
			}
		}
		if live || addressed {
			probed++
			if len(v.Edges) > 0 {
				senders++
			}
		}
	}
	if err := loader.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := vidLoader.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := msg.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	ps := &partitionState{node: node, vertexIdx: storage.AsIndex(bt), vid: vid, msg: msg, msgs: int64(messages), numVertices: n}
	rs := &runState{job: job, codec: &job.Codec, parts: []*partitionState{ps},
		gs: globalState{Superstep: 1, NumVertices: n, LiveVertices: n / 4, Messages: int64(messages)}}
	tc := &hyracks.TaskContext{Node: node, JobName: "allocs", OperatorID: "compute"}
	// No output is connected: what Compute sends is encoded and dropped.
	allocs := testing.AllocsPerRun(5, func() {
		c := &computeSource{rs: rs, ss: 2, tc: tc, join: pregel.LeftOuterJoin}
		if err := c.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if ps.liveVertices != int64(probed) || ps.nextVid == nil {
			t.Fatalf("%d of %d probed vertices computed", ps.liveVertices, probed)
		}
		ps.nextVid.Drop() // the next superstep's live set: not this test's
		ps.nextVid = nil
	})
	if v, err := bt.Search(tuple.EncodeUint64(3)); err != nil || v[0] != 0 || bytes.Equal(v[5:13], rank.Marshal(nil)) {
		t.Fatalf("vertex 3 was not updated in the tree: %x, %v", v, err)
	}
	if v, err := bt.Search(tuple.EncodeUint64(1)); err != nil || !bytes.Equal(v[5:13], rank.Marshal(nil)) {
		t.Fatalf("vertex 1, neither live nor addressed, was written: %x, %v", v, err)
	}
	if pins := node.BufferCache.PinnedFrames(); pins != 0 {
		t.Fatalf("%d frames pinned", pins)
	}
	per := allocs / float64(probed+messages)
	own := (allocs - float64(senders)) / float64(probed+messages)
	t.Logf("%.0f allocations for %d probed vertices + %d messages: %.3f each, %.4f each without PageRank's own", allocs, probed, messages, per, own)
	if own >= 0.05 {
		t.Fatalf("%.3f allocations per probed vertex + message, %.4f without PageRank's own %d: want under 0.05", per, own, senders)
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
			return newReshapeJob("reshape", "/in/g", out, n, false)
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
