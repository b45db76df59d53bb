// Package bench is the experiment harness that regenerates the paper's
// evaluation (Section 7): every table and figure has a runner that
// executes the corresponding workload grid — Pregelix plans plus the
// baseline systems over dataset-size/aggregated-RAM ratio ladders — and
// prints rows shaped like the paper's. See DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for recorded results.
package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"pregelix/internal/baselines"
	"pregelix/internal/core"
	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// Options sizes the simulated experiments. The defaults scale the
// paper's 32-node/8GB cluster down to something a laptop regenerates in
// minutes while preserving every dataset-size/RAM ratio.
type Options struct {
	// Nodes is the simulated cluster size (default 8).
	Nodes int
	// RAMPerNode is each simulated machine's budget (default 1 MiB).
	RAMPerNode int64
	// Ratios is the dataset-size/aggregated-RAM ladder
	// (default 0.02..0.30, the x-axis of Figures 10-11).
	Ratios []float64
	// PageRankIterations for PR workloads (default 5).
	PageRankIterations int
	// Out receives the printed rows (default os.Stdout).
	Out io.Writer
	// WorkDir hosts cluster state (default a temp dir per run).
	WorkDir string
	// Metrics, when set, receives machine-readable per-run observations
	// (the bench CLI aggregates them into BENCH_PR<n>.json).
	Metrics *Metrics
}

func (o *Options) defaults() {
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.RAMPerNode == 0 {
		o.RAMPerNode = 1 << 20
	}
	if len(o.Ratios) == 0 {
		o.Ratios = []float64{0.02, 0.05, 0.10, 0.15, 0.22, 0.30}
	}
	if o.PageRankIterations == 0 {
		o.PageRankIterations = 5
	}
	if o.Out == nil {
		o.Out = os.Stdout
	}
}

func (o *Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// DatasetKind selects the synthetic dataset family.
type DatasetKind int

// The two evaluation dataset families (Tables 3 and 4).
const (
	WebmapData DatasetKind = iota
	BTCData
)

func (d DatasetKind) String() string {
	if d == BTCData {
		return "btc"
	}
	return "webmap"
}

// buildDataset generates a graph whose text size hits the requested
// ratio of the cluster's aggregated RAM, returning the graph and the
// achieved ratio.
func (o *Options) buildDataset(kind DatasetKind, ratio float64, seed int64) (*graphgen.Graph, float64) {
	aggregated := float64(int64(o.Nodes) * o.RAMPerNode)
	target := ratio * aggregated
	// Estimate bytes per vertex from a small probe, then generate.
	probe := o.generate(kind, 500, seed)
	st := graphgen.StatsOf("probe", probe)
	perVertex := float64(st.Bytes) / float64(maxInt(st.Vertices, 1))
	n := int(target / perVertex)
	if n < 50 {
		n = 50
	}
	g := o.generate(kind, n, seed)
	actual := graphgen.StatsOf("", g)
	return g, float64(actual.Bytes) / aggregated
}

func (o *Options) generate(kind DatasetKind, n int, seed int64) *graphgen.Graph {
	if kind == BTCData {
		return graphgen.BTC(n, 8.94, seed)
	}
	return graphgen.Webmap(n, 8, seed)
}

// Algorithm selects the evaluation workload.
type Algorithm int

// The three evaluation algorithms (Section 7.1).
const (
	PageRank Algorithm = iota
	SSSP
	CC
)

func (a Algorithm) String() string {
	switch a {
	case SSSP:
		return "sssp"
	case CC:
		return "cc"
	default:
		return "pagerank"
	}
}

// jobFor builds the workload job with the paper's defaults (the
// "Pregelix default plan" used in Sections 7.2-7.4 unless noted).
func (o *Options) jobFor(alg Algorithm, name string) *pregel.Job {
	switch alg {
	case SSSP:
		j := algorithms.NewSSSPJob(name, "/in/"+name, "/out/"+name, 1)
		// Sections 7.2-7.4 use the default plan for every algorithm;
		// the LOJ plan is evaluated separately in Section 7.5.
		j.Join = pregel.FullOuterJoin
		j.GroupBy = pregel.SortGroupBy
		return j
	case CC:
		return algorithms.NewConnectedComponentsJob(name, "/in/"+name, "/out/"+name)
	default:
		return algorithms.NewPageRankJob(name, "/in/"+name, "/out/"+name, o.PageRankIterations)
	}
}

func (o *Options) datasetFor(alg Algorithm) DatasetKind {
	if alg == PageRank {
		return WebmapData // "PageRank is designed for ranking web pages"
	}
	return BTCData
}

// RunResult is one (system, ratio) cell of a Figure 10/11-style grid.
type RunResult struct {
	System       string
	Ratio        float64
	Overall      time.Duration
	AvgIteration time.Duration
	Supersteps   int64
	IOBytes      int64
	Failed       bool
	FailReason   string
}

// record reports the result to the options' metrics collector.
func (o *Options) record(job string, r RunResult) {
	o.Metrics.Record(RunMetric{
		System:         r.System,
		Job:            job,
		Ratio:          r.Ratio,
		WallSeconds:    r.Overall.Seconds(),
		AvgIterSeconds: r.AvgIteration.Seconds(),
		Supersteps:     r.Supersteps,
		IOBytes:        r.IOBytes,
		Failed:         r.Failed,
	})
}

// Cell renders the result the way the figures plot it.
func (r RunResult) Cell() string {
	if r.Failed {
		return "FAIL"
	}
	return fmt.Sprintf("%.2fs", r.Overall.Seconds())
}

// IterCell renders the average iteration time.
func (r RunResult) IterCell() string {
	if r.Failed {
		return "FAIL"
	}
	return fmt.Sprintf("%.3fs", r.AvgIteration.Seconds())
}

// runPregelix executes the workload on the Pregelix runtime with the
// given plan-configured job.
func (o *Options) runPregelix(ctx context.Context, job *pregel.Job, g *graphgen.Graph, nodes int) RunResult {
	res := o.runPregelixInner(ctx, job, g, nodes)
	o.record(job.Name, res)
	return res
}

func (o *Options) runPregelixInner(ctx context.Context, job *pregel.Job, g *graphgen.Graph, nodes int) RunResult {
	res := RunResult{System: "pregelix"}
	baseDir, err := os.MkdirTemp(o.WorkDir, "pregelix-bench-")
	if err != nil {
		return RunResult{System: "pregelix", Failed: true, FailReason: err.Error()}
	}
	defer os.RemoveAll(baseDir)
	rt, err := core.NewRuntime(core.Options{
		BaseDir: baseDir,
		Nodes:   nodes,
		NodeConfig: hyracks.NodeConfig{
			RAMBytes: o.RAMPerNode,
			PageSize: 4096,
		},
	})
	if err != nil {
		res.Failed, res.FailReason = true, err.Error()
		return res
	}
	defer rt.Close()
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, g); err != nil {
		res.Failed, res.FailReason = true, err.Error()
		return res
	}
	if err := rt.DFS.WriteFile(job.InputPath, buf.Bytes()); err != nil {
		res.Failed, res.FailReason = true, err.Error()
		return res
	}
	job.OutputPath = "" // timing runs skip the dump, as job time in the paper
	stats, err := rt.Run(ctx, job)
	if err != nil {
		res.Failed, res.FailReason = true, err.Error()
		return res
	}
	res.Overall = stats.LoadDuration + stats.RunDuration
	res.AvgIteration = stats.AvgIterationTime()
	res.Supersteps = stats.Supersteps
	for _, ss := range stats.SuperstepStats {
		res.IOBytes += ss.IOBytes
	}
	return res
}

// runBaseline executes the workload on one baseline system.
func (o *Options) runBaseline(ctx context.Context, kind baselines.Kind, job *pregel.Job, g *graphgen.Graph, workers int) RunResult {
	res := o.runBaselineInner(ctx, kind, job, g, workers)
	o.record(job.Name, res)
	return res
}

func (o *Options) runBaselineInner(ctx context.Context, kind baselines.Kind, job *pregel.Job, g *graphgen.Graph, workers int) RunResult {
	tmp, err := os.MkdirTemp(o.WorkDir, "baseline-")
	if err != nil {
		return RunResult{System: kind.String(), Failed: true, FailReason: err.Error()}
	}
	defer os.RemoveAll(tmp)
	r := baselines.Run(ctx, kind, job, g, baselines.Config{
		Workers:      workers,
		RAMPerWorker: o.RAMPerNode,
		TempDir:      tmp,
	})
	out := RunResult{System: kind.String(), Supersteps: r.Supersteps}
	if r.Failed() {
		out.Failed = true
		out.FailReason = r.Err.Error()
		return out
	}
	out.Overall = r.LoadTime + r.RunTime
	out.AvgIteration = r.AvgIteration
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
