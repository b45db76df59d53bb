package core

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// joinAggregator joins Bytes contributions with '|'. Unlike a sum it
// shows every contribution the fold merged, an empty one included, and
// the order it merged them in.
type joinAggregator struct{}

func (joinAggregator) Zero() pregel.Value { return pregel.NewBytes() }

func (joinAggregator) Merge(a, b pregel.Value) pregel.Value {
	out := pregel.Bytes(string(*a.(*pregel.Bytes)) + "|" + string(*b.(*pregel.Bytes)))
	return &out
}

// roundTrip sends replies through the control plane's JSON encoding.
func roundTrip(t *testing.T, reps []superstepReply) []superstepReply {
	t.Helper()
	data, err := json.Marshal(reps)
	if err != nil {
		t.Fatal(err)
	}
	var out []superstepReply
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFoldStep: stage two of the global-state aggregation ANDs the
// partitions' halt votes and merges their aggregates in reply order,
// then partition order. A zero-length aggregate is still an aggregate
// after the reply crosses the wire.
func TestFoldStep(t *testing.T) {
	job := &pregel.Job{Aggregator: joinAggregator{}}
	reps := roundTrip(t, []superstepReply{
		{Parts: []partCount{
			{Part: 0, Vertices: 3, Edges: 5, Msgs: 2, Live: 1, Halt: true, HasAgg: true, Agg: []byte("a")},
			{Part: 1, Vertices: 4, Edges: 1, Halt: true, HasAgg: true, Agg: pregel.MarshalValue(&pregel.Bytes{})},
		}, IOBytes: 7, NetTuples: 2},
		{Parts: []partCount{
			{Part: 2, Vertices: 1, Msgs: 4, Live: 1, HasAgg: true, Agg: []byte("c")},
			{Part: 3, Vertices: 2, Halt: true},
		}, IOBytes: 1, NetTuples: 3},
	})
	out, err := foldStep(job, reps)
	if err != nil {
		t.Fatal(err)
	}
	if out.haltAll {
		t.Error("partition 2 did not vote to halt, yet the fold halts")
	}
	if got, want := string(out.aggregate), "a||c"; got != want {
		t.Errorf("aggregate %q, want %q", got, want)
	}
	st := out.stat
	if st.NumVertices != 10 || st.NumEdges != 6 || st.Messages != 6 || st.LiveVertices != 2 || st.IOBytes != 8 || st.NetworkTuples != 5 {
		t.Errorf("counters %+v", st)
	}

	reps[1].Parts[0].Halt = true
	for i := range reps {
		for j := range reps[i].Parts {
			reps[i].Parts[j].HasAgg, reps[i].Parts[j].Agg = false, nil
		}
	}
	if out, err = foldStep(job, reps); err != nil || !out.haltAll || out.aggregate != nil {
		t.Errorf("every partition halted with no aggregate: halt %v, aggregate %q, err %v", out.haltAll, out.aggregate, err)
	}

	noAgg := []superstepReply{{Parts: []partCount{{Part: 0, HasAgg: true}}}}
	if _, err := foldStep(&pregel.Job{}, noAgg); err == nil {
		t.Error("an aggregate from a job with no Aggregator folded without error")
	}
	twice := []superstepReply{{Parts: []partCount{{Part: 0}, {Part: 1}}}, {Parts: []partCount{{Part: 1}}}}
	if _, err := foldStep(job, twice); err == nil {
		t.Error("a partition reported by two replies folded without error")
	}
}

// TestSuperstepPlanShape: the superstep plan is five operators joined by
// four connectors. The global state needs no operator of its own.
func TestSuperstepPlanShape(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	rs := rt.newRunState(algorithms.NewPageRankJob("shape", "/in/g", "", 1), hyracks.ExecOptions{}, tenancy{})
	rs.initParts()
	spec := rs.buildSuperstepJob()
	var ops []string
	for _, op := range spec.Ops {
		ops = append(ops, op.ID)
	}
	slices.Sort(ops)
	if got, want := strings.Join(ops, " "), "compute gb-final gb-local msg-sink resolve"; got != want || len(spec.Conns) != 4 {
		t.Errorf("operators %q with %d connectors, want %q with 4", got, len(spec.Conns), want)
	}
}

// aggCountJob is TestAggregatorAcrossSupersteps' program: every vertex
// adds 1 to a sum each superstep and checks, from superstep 2 on, that
// the previous superstep's sum is the vertex count.
func aggCountJob(input string) *pregel.Job {
	return &pregel.Job{
		Name: "agg",
		Program: pregel.ProgramFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
			if ctx.Superstep() > 1 {
				got := ctx.GlobalAggregate()
				if got == nil || int64(*got.(*pregel.Int64)) != ctx.NumVertices() {
					return errBoom
				}
			}
			one := pregel.Int64(1)
			ctx.Aggregate(&one)
			if ctx.Superstep() >= 3 {
				v.VoteToHalt()
			} else {
				keep := pregel.Int64(0)
				ctx.SendMessage(v.ID, &keep)
			}
			return nil
		}),
		Codec:      pregel.Codec{NewVertexValue: pregel.NewInt64, NewMessage: pregel.NewInt64},
		Aggregator: algorithms.SumInt64Aggregator{},
		InputPath:  input,
	}
}

func gatherBuilder(raw json.RawMessage) (*pregel.Job, error) {
	var s distTestSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	switch s.Algorithm {
	case "agg":
		return aggCountJob(s.Input), nil
	case "triangles":
		return algorithms.NewTriangleCountJob("tri", s.Input, ""), nil
	}
	return distTestBuilder(raw)
}

// TestAggregateOnCluster: on two workers of two partitions each, every
// superstep's aggregate is folded from all four partitions' votes, and
// triangle counting's final aggregate and dump are the runtime's and the
// reference's.
func TestAggregateOnCluster(t *testing.T) {
	kc := startKillableCluster(t, CoordinatorConfig{PartitionsPerNode: 2}, 2, 1,
		map[int]func(json.RawMessage) (*pregel.Job, error){0: gatherBuilder, 1: gatherBuilder})
	run := func(alg string, g *graphgen.Graph) (*JobStats, []byte) {
		t.Helper()
		spec, _ := json.Marshal(distTestSpec{Algorithm: alg, Input: "/in/g"})
		job, err := gatherBuilder(spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		stats, out, err := kc.coord.RunJob(ctx, DistSubmission{
			Name: alg + "@cluster", Spec: spec, Job: job,
			InputPath: "/in/g", InputData: graphText(t, g), WantOutput: true,
		})
		if err != nil {
			t.Fatalf("%s on the cluster: %v", alg, err)
		}
		return stats, out
	}

	stats, _ := run("agg", graphgen.Webmap(40, 3, 3))
	var sum pregel.Int64
	if err := sum.Unmarshal(stats.FinalState.Aggregate); err != nil {
		t.Fatal(err)
	}
	if int64(sum) != stats.FinalState.NumVertices || stats.Supersteps != 3 {
		t.Fatalf("final aggregate %d after %d supersteps, want %d after 3", sum, stats.Supersteps, stats.FinalState.NumVertices)
	}

	g := graphgen.Webmap(300, 6, 5)
	stats, clusterOut := run("triangles", g)
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	local, err := rt.Run(context.Background(), algorithms.NewTriangleCountJob("tri", "/in/g", "/out/tri"))
	if err != nil {
		t.Fatal(err)
	}
	localOut, err := rt.DFS.ReadFile("/out/tri")
	if err != nil {
		t.Fatal(err)
	}
	ref := refEngine(t, algorithms.NewTriangleCountJob("tri", "", ""), g)
	var count pregel.Int64
	if err := count.Unmarshal(ref); err != nil || count == 0 {
		t.Fatalf("the reference counts %d triangles (%v): the graph tests nothing", count, err)
	}
	if !bytes.Equal(stats.FinalState.Aggregate, ref) || !bytes.Equal(local.FinalState.Aggregate, ref) {
		t.Errorf("triangle aggregate: cluster %x, runtime %x, reference %x", stats.FinalState.Aggregate, local.FinalState.Aggregate, ref)
	}
	if !bytes.Equal(clusterOut, localOut) {
		t.Error("the cluster's triangle dump differs from the runtime's")
	}
}

// TestMergeDumps: the coordinator merges the workers' shares, each in
// vid order, into one output in vid order, and refuses rows it cannot
// order.
func TestMergeDumps(t *testing.T) {
	got, err := mergeDumps([][]byte{
		[]byte("2\tb\t\n9\ti\t1 2\n"),
		nil,
		[]byte("1\ta\t\n5\te\t2\n11\tk\t\n"),
		[]byte("3\tc\t\n"),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "1\ta\t\n2\tb\t\n3\tc\t\n5\te\t2\n9\ti\t1 2\n11\tk\t\n"
	if string(got) != want {
		t.Errorf("merged %q, want %q", got, want)
	}
	if got, err := mergeDumps([][]byte{nil, {}}); err != nil || len(got) != 0 {
		t.Errorf("empty shares: %q, %v", got, err)
	}
	for _, bad := range [][][]byte{
		{[]byte("1\ta\t\n"), []byte("x1\tb\t\n")}, // a row that does not start with a vid
		{[]byte("1\ta\t\n"), []byte("\tb\t\n")},   // an empty vid
		{[]byte("5\ta\t\n2\tb\t\n")},              // a share out of order
		{[]byte("1\ta\t\n"), []byte("1\tb\t\n")},  // a vid in two shares
		{[]byte("1\ta\t\n2\tb\t")},                // an unterminated row
		{[]byte("18446744073709551616\ta\t\n")},   // a vid past uint64
	} {
		if got, err := mergeDumps(bad); err == nil {
			t.Errorf("merged %q into %q without error", bad, got)
		}
	}
}

// FuzzMergeDumps: whatever bytes the workers send, the merge does not
// panic, and what it returns without error is every input row, in
// ascending vid order.
func FuzzMergeDumps(f *testing.F) {
	f.Add([]byte("2\tb\t\n9\ti\t1 2\n"), []byte("1\ta\t\n5\te\t2\n"), []byte(""))
	f.Add([]byte("1\ta\t\n"), []byte("1\tb\t\n"), []byte("x\n"))
	f.Add([]byte("3"), []byte("4\t\n"), []byte("0\n"))
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		out, err := mergeDumps([][]byte{a, b, c})
		if err != nil {
			return
		}
		if !bytes.HasSuffix(out, []byte("\n")) && len(out) > 0 {
			t.Fatalf("merged output %q is not newline-terminated rows", out)
		}
		var in []string
		for _, share := range [][]byte{a, b, c} {
			in = append(in, strings.SplitAfter(string(share), "\n")...)
		}
		count := func(lines []string) map[string]int {
			m := map[string]int{}
			for _, l := range lines {
				if l != "" {
					m[l]++
				}
			}
			return m
		}
		lines := strings.SplitAfter(string(out), "\n")
		wantRows, gotRows := count(in), count(lines)
		if len(wantRows) != len(gotRows) {
			t.Fatalf("merged %d distinct rows of %d", len(gotRows), len(wantRows))
		}
		for row, n := range wantRows {
			if gotRows[row] != n {
				t.Fatalf("row %q: %d in the output, %d in the input", row, gotRows[row], n)
			}
		}
		var prev uint64
		for i, l := range lines[:len(lines)-1] {
			field, _, _ := strings.Cut(strings.TrimSuffix(l, "\n"), "\t")
			vid, err := strconv.ParseUint(field, 10, 64)
			if err != nil {
				t.Fatalf("merged row %q does not start with a vid", l)
			}
			if i > 0 && vid <= prev {
				t.Fatalf("merged row %q follows vid %d", l, prev)
			}
			prev = vid
		}
	})
}
