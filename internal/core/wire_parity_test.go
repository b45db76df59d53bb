package core

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/internal/wire"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// newWireRuntime builds a runtime whose every connector stream crosses a
// real loopback TCP socket (ForceWire), in one process.
func newWireRuntime(t *testing.T, nodes int) *Runtime {
	t.Helper()
	tr, err := wire.NewTCPTransport(wire.Config{ListenAddr: "127.0.0.1:0", ForceWire: true})
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
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestPageRankWireParity is the PR3 acceptance check: full PageRank jobs
// — load, supersteps, dump — run with every frame shipped over loopback
// TCP (length-prefixed frame images, credit flow control) must produce
// results identical to the channel transport, for both connector
// policies. Run under -race by CI, it also exercises the socket
// goroutines against the frame pool.
func TestPageRankWireParity(t *testing.T) {
	g := graphgen.Webmap(260, 4, 13)
	const iterations = 4

	for _, conn := range []pregel.ConnectorKind{pregel.UnmergeConnector, pregel.MergeConnector} {
		name := fmt.Sprintf("%v", conn)
		t.Run(name, func(t *testing.T) {
			chanRT := newTestRuntime(t, 3)
			defer chanRT.Close()
			putGraph(t, chanRT, "/in/g", g)
			chanJob := algorithms.NewPageRankJob("pr-chan", "/in/g", "/out/chan", iterations)
			chanJob.Connector = conn
			chanStats, err := chanRT.Run(context.Background(), chanJob)
			if err != nil {
				t.Fatal(err)
			}
			want := readOutputValues(t, chanRT, "/out/chan")

			wireRT := newWireRuntime(t, 3)
			defer wireRT.Close()
			putGraph(t, wireRT, "/in/g", g)
			wireJob := algorithms.NewPageRankJob("pr-wire", "/in/g", "/out/wire", iterations)
			wireJob.Connector = conn
			wireStats, err := wireRT.Run(context.Background(), wireJob)
			if err != nil {
				t.Fatal(err)
			}
			got := readOutputValues(t, wireRT, "/out/wire")

			compareValues(t, got, want, "wire-vs-chan-"+name)
			if wireStats.Supersteps != chanStats.Supersteps {
				t.Fatalf("wire ran %d supersteps, chan ran %d", wireStats.Supersteps, chanStats.Supersteps)
			}
			if wireStats.TotalMessages != chanStats.TotalMessages {
				t.Fatalf("wire shipped %d messages, chan shipped %d",
					wireStats.TotalMessages, chanStats.TotalMessages)
			}
			// ConnStats must agree transport-for-transport: the connector
			// layer counts flushed frames identically on both paths.
			for i, ss := range wireStats.SuperstepStats {
				cs := chanStats.SuperstepStats[i]
				if ss.NetworkTuples != cs.NetworkTuples {
					t.Fatalf("superstep %d: wire counted %d network tuples, chan %d",
						ss.Superstep, ss.NetworkTuples, cs.NetworkTuples)
				}
			}
		})
	}
}

// TestSSSPWireParity covers the left-outer-join plan (Vid index, merge
// sources) over the wire.
func TestSSSPWireParity(t *testing.T) {
	g := graphgen.BTC(220, 3, 17)

	chanRT := newTestRuntime(t, 3)
	defer chanRT.Close()
	putGraph(t, chanRT, "/in/g", g)
	chanJob := algorithms.NewSSSPJob("sssp-chan", "/in/g", "/out/chan", 1)
	if _, err := chanRT.Run(context.Background(), chanJob); err != nil {
		t.Fatal(err)
	}
	want := readOutputValues(t, chanRT, "/out/chan")

	wireRT := newWireRuntime(t, 3)
	defer wireRT.Close()
	putGraph(t, wireRT, "/in/g", g)
	wireJob := algorithms.NewSSSPJob("sssp-wire", "/in/g", "/out/wire", 1)
	if _, err := wireRT.Run(context.Background(), wireJob); err != nil {
		t.Fatal(err)
	}
	got := readOutputValues(t, wireRT, "/out/wire")
	compareValues(t, got, want, "sssp-wire-vs-chan")
}

// TestSuperstepParityRuntimeVsCluster holds the two execution shapes to
// one superstep state machine: a single-process Runtime.Run and a
// 2-worker Coordinator.RunJob of the same job must agree superstep by
// superstep — message count, live and total vertices, and join plan —
// not only on the dumped values. Covers the full-outer-join plan
// (PageRank), the left-outer-join plan (SSSP) and a convergence-
// terminated program (CC).
func TestSuperstepParityRuntimeVsCluster(t *testing.T) {
	coord := startDistCluster(t, 2, 2)
	rt := newTestRuntime(t, 4)
	defer rt.Close()

	for _, tc := range []struct {
		spec  distTestSpec
		g     *graphgen.Graph
		local *pregel.Job
	}{
		{distTestSpec{Algorithm: "pagerank", Iterations: 4}, graphgen.Webmap(260, 4, 13),
			algorithms.NewPageRankJob("pr", "", "", 4)},
		{distTestSpec{Algorithm: "sssp", Source: 1}, graphgen.BTC(220, 3, 17),
			algorithms.NewSSSPJob("sssp", "", "", 1)},
		{distTestSpec{Algorithm: "cc"}, graphgen.BTC(200, 3, 7),
			algorithms.NewConnectedComponentsJob("cc", "", "")},
	} {
		t.Run(tc.spec.Algorithm, func(t *testing.T) {
			in := "/in/" + tc.spec.Algorithm
			putGraph(t, rt, in, tc.g)
			tc.local.InputPath, tc.local.OutputPath = in, "/out/"+tc.spec.Algorithm
			local, err := rt.Run(context.Background(), tc.local)
			if err != nil {
				t.Fatal(err)
			}

			tc.spec.Input = in
			spec, _ := json.Marshal(tc.spec)
			job, err := distTestBuilder(spec)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			dist, out, err := coord.RunJob(ctx, DistSubmission{
				Name: tc.spec.Algorithm + "@j1", Spec: spec, Job: job,
				InputPath: in, InputData: graphText(t, tc.g), WantOutput: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			compareValues(t, parseOutput(t, out), readOutputValues(t, rt, tc.local.OutputPath), "cluster-vs-runtime")

			if len(dist.SuperstepStats) != len(local.SuperstepStats) {
				t.Fatalf("cluster ran %d supersteps, runtime %d", len(dist.SuperstepStats), len(local.SuperstepStats))
			}
			for i, d := range dist.SuperstepStats {
				l := local.SuperstepStats[i]
				if d.Superstep != l.Superstep || d.Messages != l.Messages || d.LiveVertices != l.LiveVertices ||
					d.NumVertices != l.NumVertices || d.Plan != l.Plan {
					t.Fatalf("superstep %d: cluster {ss=%d msgs=%d live=%d |V|=%d plan=%s}, runtime {ss=%d msgs=%d live=%d |V|=%d plan=%s}",
						i+1, d.Superstep, d.Messages, d.LiveVertices, d.NumVertices, d.Plan,
						l.Superstep, l.Messages, l.LiveVertices, l.NumVertices, l.Plan)
				}
			}
			if dist.FinalState.Superstep != local.FinalState.Superstep ||
				dist.FinalState.LiveVertices != local.FinalState.LiveVertices {
				t.Fatalf("final state: cluster %+v, runtime %+v", dist.FinalState, local.FinalState)
			}
		})
	}
}
