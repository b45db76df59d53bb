package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"pregelix/internal/hyracks"
	"pregelix/internal/operators"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// countingWriter counts the tuples it is lent and keeps none.
type countingWriter struct{ tuples int }

func (w *countingWriter) Open() error                    { return nil }
func (w *countingWriter) NextFrame(f *tuple.Frame) error { w.tuples += f.Len(); return nil }
func (w *countingWriter) Fail(error)                     {}
func (w *countingWriter) Close() error                   { return nil }

// TestSenderHandOffAllocations: the messages of a dense PageRank
// superstep go from SendMessage to the sender's group-by, through the
// wiring the superstep plan gives them, with no allocation per message
// under either policy. What is left is PageRank's one escaping share per
// vertex that sends, and the group-by's by the frame and the table.
func TestSenderHandOffAllocations(t *testing.T) {
	const n = 6000
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
	senders, messages := 0, 0
	dests := map[uint64]bool{}
	for i := uint64(0); i < n; i++ {
		v := &pregel.Vertex{Value: &rank}
		if i%3 != 0 { // every third page is dangling
			senders++
			for e := uint64(1); e <= 6; e++ {
				v.AddEdge(pregel.VertexID((i+e*e)%n), nil)
				dests[(i+e*e)%n] = true
				messages++
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
	for _, hint := range []pregel.GroupByKind{pregel.HashSortGroupBy, pregel.SortGroupBy} {
		job.GroupBy = hint
		ps := &partitionState{node: node, vertexIdx: storage.AsIndex(bt), msg: msg, msgs: n, numVertices: n}
		rs := &runState{job: job, codec: &job.Codec, parts: []*partitionState{ps},
			gs: globalState{Superstep: 1, NumVertices: n, LiveVertices: n, Messages: n}}
		tc := &hyracks.TaskContext{Node: node, JobName: "allocs", OperatorID: "compute"}
		gbTC := &hyracks.TaskContext{Node: node, JobName: "allocs", OperatorID: "gb-local", OperatorMem: 4 << 20}
		out := &countingWriter{}
		allocs := testing.AllocsPerRun(5, func() {
			gb := operators.NewGroupByRuntime(gbTC, senderKind(job), newMsgCombiner(job))
			gb.SetOutputs([]hyracks.FrameWriter{out})
			c := &computeSource{rs: rs, ss: 2, tc: tc, join: pregel.FullOuterJoin}
			c.SetOutputs([]hyracks.FrameWriter{gb})
			out.tuples = 0
			if err := c.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
		if out.tuples != len(dests) {
			t.Fatalf("%v: gb-local emitted %d groups, want %d", hint, out.tuples, len(dests))
		}
		per := (allocs - float64(senders)) / float64(messages)
		t.Logf("%v: %.0f allocations for %d vertices sending %d messages: %.4f a message without PageRank's own %d", hint, allocs, n, messages, per, senders)
		if per >= 0.05 {
			t.Fatalf("%v: %.4f allocations per message without PageRank's own %d, want under 0.05", hint, per, senders)
		}
	}
}

// connectorSpec is a parity job with its connector hint.
type connectorSpec struct {
	paritySpec
	Connector pregel.ConnectorKind `json:"connector"`
}

func buildConnectorJob(name string, s connectorSpec) (*pregel.Job, error) {
	job, err := buildParityJob(name, s.paritySpec)
	if err == nil {
		job.Connector = s.Connector
	}
	return job, err
}

// TestSenderPoliciesAgree: whether a sender drains its table unsorted
// (the HashSort hint before the partitioning connector), sorted (before
// the merging one) or sorts every message (the sort hint), in memory or
// spilling, on the runtime or on two worker processes, the integer
// algorithms dump the same bytes as the sort hint with the partitioning
// connector, and PageRank stays within the reference's tolerance.
func TestSenderPoliciesAgree(t *testing.T) {
	g := parityGraph()
	algs := []string{"pagerank", "cc", "sssp"}
	var specs []connectorSpec
	for _, alg := range algs {
		for _, hint := range []pregel.GroupByKind{pregel.SortGroupBy, pregel.HashSortGroupBy} {
			for _, conn := range []pregel.ConnectorKind{pregel.UnmergeConnector, pregel.MergeConnector} {
				specs = append(specs, connectorSpec{paritySpec{alg, hint}, conn})
			}
		}
	}
	ref, err := buildParityJob("ref", paritySpec{Algorithm: "pagerank"})
	if err != nil {
		t.Fatal(err)
	}
	floats := referenceValues(t, ref, g)
	want := map[string][]byte{} // the integer algorithms' dumps under Sort/unmerge in memory
	check := func(s connectorSpec, out []byte, where string) {
		t.Helper()
		label := fmt.Sprintf("%s under %v/%v, %s", s.Algorithm, s.GroupBy, s.Connector, where)
		if s.Algorithm == "pagerank" {
			compareValues(t, parseOutput(t, out), floats, label)
			return
		}
		if len(out) == 0 {
			t.Fatalf("%s: empty dump", label)
		}
		if w, ok := want[s.Algorithm]; !ok {
			want[s.Algorithm] = out
		} else if !bytes.Equal(out, w) {
			t.Errorf("%s: the dump differs from the sort hint's with the partitioning connector", label)
		}
	}
	for _, s := range specs {
		for _, opMem := range []int64{parityFits, paritySmall} {
			job, err := buildConnectorJob("parity", s)
			if err != nil {
				t.Fatal(err)
			}
			out, _ := runParityJob(t, g, job, opMem)
			check(s, out, fmt.Sprintf("runtime at %d bytes", opMem))
		}
	}

	for _, ram := range []int64{0, 16 * paritySmall} {
		coord := startParityCluster(t, ram, func(raw json.RawMessage) (*pregel.Job, error) {
			var s connectorSpec
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, err
			}
			return buildConnectorJob("parity", s)
		})
		for _, s := range specs {
			spec, _ := json.Marshal(s)
			job, err := buildConnectorJob("parity", s)
			if err != nil {
				t.Fatal(err)
			}
			run, done := context.WithTimeout(context.Background(), 120*time.Second)
			_, out, err := coord.RunJob(run, DistSubmission{
				Name: fmt.Sprintf("%s-%v-%v@%d", s.Algorithm, s.GroupBy, s.Connector, ram), Spec: spec, Job: job,
				InputPath: "/in/g", InputData: graphText(t, g), WantOutput: true,
			})
			done()
			if err != nil {
				t.Fatalf("%+v on the cluster with %d bytes of RAM: %v", s, ram, err)
			}
			check(s, out, fmt.Sprintf("cluster, RAM %d", ram))
		}
	}
}

// startParityCluster starts a coordinator and two worker processes' worth
// of workers, one node each, whose RAM is ram (0: the default) and whose
// jobs build does; everything stops when the test ends.
func startParityCluster(t *testing.T, ram int64, build func(json.RawMessage) (*pregel.Job, error)) *Coordinator {
	t.Helper()
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
		go RunWorker(ctx, WorkerConfig{CCAddr: coord.Addr(), BaseDir: t.TempDir(), Nodes: 1, BuildJob: build})
	}
	ready, done := context.WithTimeout(ctx, 30*time.Second)
	defer done()
	if err := coord.WaitReady(ready); err != nil {
		t.Fatalf("cluster never became ready: %v", err)
	}
	return coord
}
