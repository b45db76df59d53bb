package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// distTestSpec is the job descriptor of the test cluster's JobBuilder —
// the analog of the serve API's jobRequest.
type distTestSpec struct {
	Algorithm  string  `json:"algorithm"`
	Input      string  `json:"input"`
	Iterations int     `json:"iterations"`
	Source     uint64  `json:"source"`
	Epsilon    float64 `json:"epsilon"`
	K          int     `json:"k"`
}

func distTestBuilder(raw json.RawMessage) (*pregel.Job, error) {
	var s distTestSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	switch s.Algorithm {
	case "pagerank":
		return algorithms.NewPageRankJob("pr", s.Input, "", s.Iterations), nil
	case "cc":
		return algorithms.NewConnectedComponentsJob("cc", s.Input, ""), nil
	case "sssp":
		return algorithms.NewSSSPJob("sssp", s.Input, "", s.Source), nil
	case "deltapagerank":
		return algorithms.NewDeltaPageRankJob("dpr", s.Input, "", s.Epsilon), nil
	case "kcore":
		return algorithms.NewKCoreJob("kcore", s.Input, "", s.K), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", s.Algorithm)
	}
}

// startDistCluster brings up a coordinator plus worker goroutines, each
// worker with its own runtime, storage and wire transport — separate
// processes in everything but the address space.
func startDistCluster(t testing.TB, workers, nodesPerWorker int) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{
		ListenAddr: "127.0.0.1:0",
		Workers:    workers,
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
	for i := 0; i < workers; i++ {
		dir := t.TempDir()
		go func() {
			RunWorker(ctx, WorkerConfig{
				CCAddr:   coord.Addr(),
				BaseDir:  dir,
				Nodes:    nodesPerWorker,
				BuildJob: distTestBuilder,
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

func graphText(t testing.TB, g *graphgen.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parseOutput maps dumped lines to vid -> value-string.
func parseOutput(t *testing.T, data []byte) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, "\t", 3)
		if len(fields) < 2 {
			t.Fatalf("bad output line %q", line)
		}
		var vid uint64
		fmt.Sscanf(fields[0], "%d", &vid)
		out[vid] = fields[1]
	}
	return out
}

// TestDistributedPageRank runs PageRank on a 2-process cluster (real
// TCP shuffle between worker runtimes) and requires results matching a
// single-process run of the same job and the reference interpreter.
func TestDistributedPageRank(t *testing.T) {
	g := graphgen.Webmap(300, 4, 11)
	const iterations = 4
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", iterations), g)

	// Single-process baseline on an equally sized cluster.
	rt := newTestRuntime(t, 4)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	localJob := algorithms.NewPageRankJob("pr-local", "/in/g", "/out/local", iterations)
	localStats, err := rt.Run(context.Background(), localJob)
	if err != nil {
		t.Fatal(err)
	}
	localOut := readOutputValues(t, rt, "/out/local")
	compareValues(t, localOut, want, "local-baseline")

	coord := startDistCluster(t, 2, 2)
	spec, _ := json.Marshal(distTestSpec{Algorithm: "pagerank", Input: "/in/g", Iterations: iterations})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	stats, output, err := coord.RunJob(ctx, DistSubmission{
		Name:       "pr-dist@j1",
		Spec:       spec,
		Job:        job,
		InputPath:  "/in/g",
		InputData:  graphText(t, g),
		WantOutput: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	compareValues(t, parseOutput(t, output), want, "distributed")

	if stats.Supersteps != localStats.Supersteps {
		t.Fatalf("distributed ran %d supersteps, local ran %d", stats.Supersteps, localStats.Supersteps)
	}
	if stats.FinalState.NumVertices != localStats.FinalState.NumVertices {
		t.Fatalf("distributed saw %d vertices, local saw %d",
			stats.FinalState.NumVertices, localStats.FinalState.NumVertices)
	}
	if stats.TotalMessages != localStats.TotalMessages {
		t.Fatalf("distributed shipped %d messages, local shipped %d",
			stats.TotalMessages, localStats.TotalMessages)
	}
	// The shuffle crossed processes: the superstep stats must show
	// connector traffic.
	var net int64
	for _, ss := range stats.SuperstepStats {
		net += ss.NetworkBytes
	}
	if net == 0 {
		t.Fatal("distributed run reported no connector traffic")
	}
}

// TestDistributedConvergence runs connected components (convergence-
// terminated, not iteration-capped) so the distributed halt vote — the
// gs task's haltAll merged with the cluster-wide message count — decides
// termination exactly as in a single process.
func TestDistributedConvergence(t *testing.T) {
	g := graphgen.BTC(260, 3, 7)
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)

	rt := newTestRuntime(t, 4)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	localStats, err := rt.Run(context.Background(), algorithms.NewConnectedComponentsJob("cc-local", "/in/g", "/out/cc"))
	if err != nil {
		t.Fatal(err)
	}

	coord := startDistCluster(t, 2, 2)
	spec, _ := json.Marshal(distTestSpec{Algorithm: "cc", Input: "/in/g"})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	stats, output, err := coord.RunJob(ctx, DistSubmission{
		Name:       "cc-dist@j1",
		Spec:       spec,
		Job:        job,
		InputPath:  "/in/g",
		InputData:  graphText(t, g),
		WantOutput: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	compareValues(t, parseOutput(t, output), want, "distributed-cc")
	if stats.Supersteps != localStats.Supersteps {
		t.Fatalf("distributed converged after %d supersteps, local after %d",
			stats.Supersteps, localStats.Supersteps)
	}
}

// TestDistributedJobFailureAndRecovery submits a job whose load fails
// (missing input), expects a clean error, then verifies the cluster
// still completes a subsequent healthy job — sessions and wire streams
// from the failed job must not leak into the next one.
func TestDistributedJobFailureAndRecovery(t *testing.T) {
	coord := startDistCluster(t, 2, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	spec, _ := json.Marshal(distTestSpec{Algorithm: "pagerank", Input: "/in/missing", Iterations: 2})
	job, err := distTestBuilder(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.RunJob(ctx, DistSubmission{
		Name: "broken@j1", Spec: spec, Job: job,
	}); err == nil {
		t.Fatal("job with missing input succeeded")
	}

	g := graphgen.Webmap(120, 3, 5)
	want := referenceValues(t, algorithms.NewPageRankJob("pr", "", "", 3), g)
	spec2, _ := json.Marshal(distTestSpec{Algorithm: "pagerank", Input: "/in/g2", Iterations: 3})
	job2, err := distTestBuilder(spec2)
	if err != nil {
		t.Fatal(err)
	}
	_, output, err := coord.RunJob(ctx, DistSubmission{
		Name:       "healthy@j2",
		Spec:       spec2,
		Job:        job2,
		InputPath:  "/in/g2",
		InputData:  graphText(t, g),
		WantOutput: true,
	})
	if err != nil {
		t.Fatalf("healthy job after failed job: %v", err)
	}
	compareValues(t, parseOutput(t, output), want, "post-failure")
}
