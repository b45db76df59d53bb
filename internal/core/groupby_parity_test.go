package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/internal/operators"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// The group-by hint chooses where a sender combines its messages (in a
// table as they are sent, or in the sorted buffer when it is drained)
// and the operator memory how often either spills; neither may show in
// the result.

// paritySpec is the job descriptor of the parity cluster's JobBuilder.
type paritySpec struct {
	Algorithm string             `json:"algorithm"`
	GroupBy   pregel.GroupByKind `json:"groupBy"`
}

// parityIterations is how long the PageRank of the parity jobs runs.
const parityIterations = 4

func buildParityJob(name string, s paritySpec) (*pregel.Job, error) {
	var job *pregel.Job
	switch s.Algorithm {
	case "pagerank":
		job = algorithms.NewPageRankJob(name, "/in/g", "/out/"+name, parityIterations)
	case "deltapagerank":
		job = algorithms.NewDeltaPageRankJob(name, "/in/g", "/out/"+name, 1e-7)
	case "sssp":
		job = algorithms.NewSSSPJob(name, "/in/g", "/out/"+name, 1)
	case "cc":
		job = algorithms.NewConnectedComponentsJob(name, "/in/g", "/out/"+name)
	case "kcore":
		job = algorithms.NewKCoreJob(name, "/in/g", "/out/"+name, 3)
	case "triangles": // no combiner: the lists are gathered
		job = algorithms.NewTriangleCountJob(name, "/in/g", "/out/"+name)
	default:
		return nil, fmt.Errorf("unknown algorithm %q", s.Algorithm)
	}
	job.GroupBy = s.GroupBy
	return job, nil
}

// Operator memories of the parity runs: everything fits, and a carve of
// which a sender's superstep on parityGraph needs at least four.
const (
	parityFits  = 0 // the default
	paritySmall = 64 << 10
)

// parityGraph is dense enough that each of four senders holds a few
// thousand destinations a superstep: with paritySmall, 800 to a run.
func parityGraph() *graphgen.Graph { return graphgen.Webmap(4000, 6, 5) }

// parityRuntime runs the job on a 2-node, 4-partition runtime and returns
// the dump and the bytes its supersteps moved to and from disk.
func parityRuntime(t *testing.T, g *graphgen.Graph, s paritySpec, opMem int64) ([]byte, *JobStats) {
	t.Helper()
	rt, err := NewRuntime(Options{
		BaseDir: t.TempDir(), Nodes: 2, PartitionsPerNode: 2,
		NodeConfig: hyracks.NodeConfig{OperatorMemBytes: opMem},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	job, err := buildParityJob("parity", s)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		t.Fatalf("%+v at %d bytes: %v", s, opMem, err)
	}
	out, err := rt.DFS.ReadFile(job.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

func superstepIO(s *JobStats) (n int64) {
	for _, ss := range s.SuperstepStats {
		n += ss.IOBytes
	}
	return n
}

// TestGroupByHintsAgreeOnFloats: PageRank and delta-PageRank under both
// hints, on the runtime and on a 2-worker cluster, in memory and with
// every sender spilling several runs a superstep, stay within the
// reference's tolerance (the order of the additions is all that moves).
func TestGroupByHintsAgreeOnFloats(t *testing.T) {
	g := parityGraph()
	hints := []pregel.GroupByKind{pregel.SortGroupBy, pregel.HashSortGroupBy}
	want := map[string]map[uint64]string{}
	for _, alg := range []string{"pagerank", "deltapagerank"} {
		ref, err := buildParityJob("ref", paritySpec{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		want[alg] = referenceValues(t, ref, g)
		for _, hint := range hints {
			s := paritySpec{alg, hint}
			fits, fitStats := parityRuntime(t, g, s, parityFits)
			compareValues(t, parseOutput(t, fits), want[alg], fmt.Sprintf("%+v, fits", s))
			small, smallStats := parityRuntime(t, g, s, paritySmall)
			compareValues(t, parseOutput(t, small), want[alg], fmt.Sprintf("%+v, spills", s))
			if alg != "pagerank" {
				continue
			}
			// Four runs of 800 combined messages (an 8-byte vid and a 16-byte
			// list each) from each of 4 senders in each superstep that sends.
			spilled := superstepIO(smallStats) - superstepIO(fitStats)
			if least := int64(parityIterations-1) * 4 * 4 * 800 * 24; spilled < least {
				t.Errorf("%+v: %d bytes of runs at %d bytes of operator memory, want %d or more", s, spilled, paritySmall, least)
			}
		}
	}

	// The same on two worker processes, whose operator memory is their
	// nodes' RAM/16.
	for _, ram := range []int64{0, 16 * paritySmall} {
		coord, err := NewCoordinator(CoordinatorConfig{
			ListenAddr: "127.0.0.1:0", Workers: 2, PartitionsPerNode: 2, RAMBytes: ram, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(func() {
			coord.Close()
			cancel()
		})
		for i := 0; i < 2; i++ {
			dir := t.TempDir()
			go RunWorker(ctx, WorkerConfig{
				CCAddr: coord.Addr(), BaseDir: dir, Nodes: 1,
				BuildJob: func(raw json.RawMessage) (*pregel.Job, error) {
					var s paritySpec
					if err := json.Unmarshal(raw, &s); err != nil {
						return nil, err
					}
					return buildParityJob("parity", s)
				},
			})
		}
		ready, done := context.WithTimeout(ctx, 30*time.Second)
		err = coord.WaitReady(ready)
		done()
		if err != nil {
			t.Fatalf("cluster never became ready: %v", err)
		}
		for alg := range want {
			for _, hint := range hints {
				s := paritySpec{alg, hint}
				spec, _ := json.Marshal(s)
				job, err := buildParityJob("parity", s)
				if err != nil {
					t.Fatal(err)
				}
				run, done := context.WithTimeout(ctx, 120*time.Second)
				_, out, err := coord.RunJob(run, DistSubmission{
					Name: fmt.Sprintf("%s-%v@%d", alg, hint, ram), Spec: spec, Job: job,
					InputPath: "/in/g", InputData: graphText(t, g), WantOutput: true,
				})
				done()
				if err != nil {
					t.Fatalf("%+v on the cluster with %d bytes of RAM: %v", s, ram, err)
				}
				compareValues(t, parseOutput(t, out), want[alg], fmt.Sprintf("%+v, cluster, RAM %d", s, ram))
			}
		}
	}
}

// sortedLists puts every vertex's value, a list of vids, in order. k-core
// keeps the vids in the order their announcements arrived, and two
// senders' frames reach a receiver in either order: two runs of one plan
// differ there.
func sortedLists(dump []byte) []byte {
	lines := bytes.Split(dump, []byte("\n"))
	for i, line := range lines {
		if fields := bytes.Split(line, []byte("\t")); len(fields) > 1 {
			vids := strings.Split(string(fields[1]), ",")
			sort.Strings(vids)
			fields[1] = []byte(strings.Join(vids, ","))
			lines[i] = bytes.Join(fields, []byte("\t"))
		}
	}
	return bytes.Join(lines, []byte("\n"))
}

// TestGroupByHintsAgreeExactly: where combining is exact (a minimum, a
// concatenation, a gathered list) the dump is the same bytes whatever the
// hint and however often the group-bys spill.
func TestGroupByHintsAgreeExactly(t *testing.T) {
	g := parityGraph()
	for _, alg := range []string{"sssp", "cc", "kcore", "triangles"} {
		var first []byte
		var firstAgg []byte
		for _, hint := range []pregel.GroupByKind{pregel.SortGroupBy, pregel.HashSortGroupBy} {
			for _, opMem := range []int64{parityFits, paritySmall} {
				out, stats := parityRuntime(t, g, paritySpec{alg, hint}, opMem)
				if len(out) == 0 {
					t.Fatalf("%s: empty dump", alg)
				}
				if alg == "kcore" {
					out = sortedLists(out)
				}
				if first == nil {
					first, firstAgg = out, stats.FinalState.Aggregate
					continue
				}
				if !bytes.Equal(out, first) {
					t.Errorf("%s under %v at %d bytes: the dump differs from the sort hint's in memory", alg, hint, opMem)
				}
				if !bytes.Equal(stats.FinalState.Aggregate, firstAgg) {
					t.Errorf("%s under %v at %d bytes: aggregate %x, want %x", alg, hint, opMem, stats.FinalState.Aggregate, firstAgg)
				}
			}
		}
	}
}

// BenchmarkMsgCombineSender is one sender's superstep of PageRank on the
// 30k-vertex Webmap on two partitions, from SendMessage to what leaves
// gb-local: 120k messages to 30k destinations, combined under the job's
// own group-by hint at the 4 MiB of operator memory the benchmark's
// workloads have (RAM/16).
func BenchmarkMsgCombineSender(b *testing.B) {
	const vertices, degree, parts = 30000, 8, 2
	g := graphgen.Webmap(vertices, degree, 1)
	var dests []pregel.VertexID
	for _, src := range g.VertexIDs() {
		if src%parts == 0 {
			for _, d := range g.Adj[src] {
				dests = append(dests, pregel.VertexID(d))
			}
		}
	}
	job := algorithms.NewPageRankJob("bench", "", "", 1)
	kind := groupByKind(job)
	node, err := hyracks.NewNodeController("n", b.TempDir(), hyracks.NodeConfig{PageSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	tc := &hyracks.TaskContext{
		Ctx: context.Background(), Node: node, JobName: "bench", OperatorID: "gb-local",
		NumPartitions: parts, OperatorMem: 4 << 20,
	}
	rank := pregel.Double(1.0 / vertices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := operators.NewGroupByRuntime(tc, kind, newMsgCombiner(job))
		gb.SetOutputs(nil)
		src := &computeSource{}
		src.SetOutputs([]hyracks.FrameWriter{gb})
		if err := src.OpenOutputs(); err != nil {
			b.Fatal(err)
		}
		ctx := &computeCtx{src: src}
		for _, d := range dests {
			ctx.SendMessage(d, &rank)
		}
		if ctx.err != nil {
			b.Fatal(ctx.err)
		}
		if err := src.CloseOutputs(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dests)), "ns/msg")
	b.ReportMetric(float64(node.IOBytes())/float64(b.N)/1e6, "spillMB/op")
}

// BenchmarkSpillSuperstep is the out-of-core superstep: PageRank's first
// superstep on pr_spill's graph (the 60k-vertex Webmap) on 2 nodes of
// 1 MiB RAM, whose 64 KiB of operator memory (RAM/16) makes every
// group-by spill. ns/msg is that superstep's time over the messages it
// sends; runs/op and B/op are the whole job's, whose load's external sort
// spills too.
func BenchmarkSpillSuperstep(b *testing.B) {
	rt, err := NewRuntime(Options{
		BaseDir: b.TempDir(), Nodes: 2,
		NodeConfig: hyracks.NodeConfig{RAMBytes: 1 << 20, PageSize: 4096},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, graphgen.Webmap(60000, 8, 1)); err != nil {
		b.Fatal(err)
	}
	if err := rt.DFS.WriteFile("/in/g", buf.Bytes()); err != nil {
		b.Fatal(err)
	}
	var msgs int64
	var sending time.Duration
	runs := operators.SpilledRuns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := rt.Run(context.Background(), algorithms.NewPageRankJob("bench", "/in/g", "", 2))
		if err != nil {
			b.Fatal(err)
		}
		first := stats.SuperstepStats[0]
		msgs += first.Messages
		sending += first.Duration
	}
	b.StopTimer()
	b.ReportMetric(float64(sending.Nanoseconds())/float64(msgs), "ns/msg")
	b.ReportMetric(float64(operators.SpilledRuns()-runs)/float64(b.N), "runs/op")
}

// TestHashSortWithoutCombinerSorts: with no combiner the HashSort hint is
// the sort policy, as pregel.HashSortGroupBy says. Every vertex but one
// sends to vertex 1; a table would re-append vertex 1's growing message
// list whole at every message, which allocates the square of the list.
func TestHashSortWithoutCombinerSorts(t *testing.T) {
	const n = 8000
	g := &graphgen.Graph{Adj: map[uint64][]uint64{}}
	for v := uint64(1); v <= n; v++ {
		g.Adj[v] = nil
	}
	allocated := map[pregel.GroupByKind]uint64{}
	for _, hint := range []pregel.GroupByKind{pregel.SortGroupBy, pregel.HashSortGroupBy} {
		rt := newTestRuntime(t, 2)
		defer rt.Close()
		putGraph(t, rt, "/in/g", g)
		job := &pregel.Job{
			Name: fmt.Sprintf("gather-%v", hint),
			Program: pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
				if ctx.Superstep() == 1 && v.ID != 1 {
					ctx.SendMessage(1, pregel.NewInt64())
				}
				if len(msgs) > 0 {
					*v.Value.(*pregel.Int64) = pregel.Int64(len(msgs))
				}
				v.VoteToHalt()
				return nil
			}),
			Codec:      pregel.Codec{NewVertexValue: pregel.NewInt64, NewMessage: pregel.NewInt64},
			GroupBy:    hint,
			InputPath:  "/in/g",
			OutputPath: "/out/gather",
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := rt.Run(context.Background(), job); err != nil {
			t.Fatalf("%v: %v", hint, err)
		}
		runtime.ReadMemStats(&after)
		allocated[hint] = after.TotalAlloc - before.TotalAlloc
		if got := readOutputValues(t, rt, "/out/gather")[1]; got != fmt.Sprint(n-1) {
			t.Fatalf("%v: vertex 1 gathered %s messages, want %d", hint, got, n-1)
		}
	}
	if hashAlloc, sortAlloc := allocated[pregel.HashSortGroupBy], allocated[pregel.SortGroupBy]; hashAlloc > 2*sortAlloc {
		t.Fatalf("the job allocated %d bytes under HashSort, %d under Sort", hashAlloc, sortAlloc)
	}
}
