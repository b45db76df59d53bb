package bench

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"pregelix/internal/baselines"
	"pregelix/internal/core"
	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, o Options) error
}

// Experiments returns the full registry, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table3", "Table 3: Webmap dataset ladder", RunTable3},
		{"table4", "Table 4: BTC dataset ladder", RunTable4},
		{"fig10a", "Fig 10(a)+11(a): PageRank vs dataset/RAM ratio, all systems", runFig10(PageRank)},
		{"fig10b", "Fig 10(b)+11(b): SSSP vs dataset/RAM ratio, all systems", runFig10(SSSP)},
		{"fig10c", "Fig 10(c)+11(c): CC vs dataset/RAM ratio, all systems", runFig10(CC)},
		{"fig12a", "Fig 12(a): Pregelix PageRank speedup, 4 dataset sizes", RunFig12a},
		{"fig12b", "Fig 12(b): PageRank speedup on X-Small, all systems", RunFig12b},
		{"fig12c", "Fig 12(c): Pregelix scaleup (PR, SSSP, CC)", RunFig12c},
		{"fig13", "Fig 13: throughput (jobs/hour) vs concurrency, 4 sizes", RunFig13},
		{"conc-jobs", "Throughput: concurrent jobs through one admission gate (FIFO, slots, memory carve)", RunConcJobs},
		{"framepath", "PR2: packed message-path allocations per tuple", RunFramePath},
		{"wirepath", "PR3: shuffle over TCP loopback vs in-process channels", RunWirePath},
		{"elastic", "PR5: live scale-out 2→4 workers mid-PageRank (time-to-rebalance)", RunElastic},
		{"query", "PR6: always-on query tier — hot vs cold point reads, batched top-k", RunQueryTier},
		{"compress", "per-frame compression — shuffle/checkpoint/migration, off vs flate vs auto", RunCompress},
		{"delta", "PR8: streaming ingest — delta refresh vs full recompute at 1% churn", RunDelta},
		{"adaptive", "PR10: stats-driven hot-partition split on skewed PageRank, adaptive on vs off", RunAdaptive},
		{"fig14a", "Fig 14(a): LOJ vs FOJ, SSSP", runFig14(SSSP)},
		{"fig14b", "Fig 14(b): LOJ vs FOJ, PageRank", runFig14(PageRank)},
		{"fig14c", "Fig 14(c): LOJ vs FOJ, CC", runFig14(CC)},
		{"fig15", "Fig 15: Pregelix-LOJ vs other systems, SSSP", RunFig15},
		{"sec76", "Section 7.6: core lines of code", RunSec76},
		{"ablate-gb", "Ablation: the four group-by strategies (Fig 7)", RunAblateGroupBy},
		{"ablate-conn", "Ablation: merging vs non-merging connector vs cluster size", RunAblateConnector},
		{"ablate-pipe", "Ablation: job pipelining vs DFS round-trips (Sec 5.6)", RunAblatePipelining},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunTable3 prints the Webmap dataset ladder (Table 3).
func RunTable3(ctx context.Context, o Options) error {
	return runDatasetTable(o, WebmapData, "Table 3 (Webmap samples; generated power-law stand-ins)")
}

// RunTable4 prints the BTC dataset ladder (Table 4).
func RunTable4(ctx context.Context, o Options) error {
	return runDatasetTable(o, BTCData, "Table 4 (BTC samples/scale-ups; generated uniform-degree stand-ins)")
}

func runDatasetTable(o Options, kind DatasetKind, title string) error {
	o.defaults()
	names := []string{"Tiny", "X-Small", "Small", "Medium", "Large"}
	sizes := []float64{0.04, 0.125, 0.2, 0.4, 0.9} // fraction of aggregated RAM
	o.printf("%s\n%-8s %12s %10s %12s %12s\n", title, "Name", "Size(bytes)", "Ratio", "#Vertices", "#Edges")
	for i, name := range names {
		g, ratio := o.buildDataset(kind, sizes[i], int64(100+i))
		st := graphgen.StatsOf(name, g)
		o.printf("%-8s %12d %10.3f %12d %12d  avg degree %.2f\n",
			name, st.Bytes, ratio, st.Vertices, st.Edges, st.AvgDegree)
	}
	return nil
}

// fig10Systems is the system lineup of Figures 10-11.
var fig10Systems = []baselines.Kind{
	baselines.GiraphMem, baselines.GiraphOOC,
	baselines.GraphLab, baselines.GraphX, baselines.Hama,
}

func runFig10(alg Algorithm) func(ctx context.Context, o Options) error {
	return func(ctx context.Context, o Options) error {
		return RunFig10(ctx, o, alg)
	}
}

// RunFig10 regenerates one panel of Figures 10 and 11: overall and
// average-iteration execution time for every system across the
// dataset/RAM ratio ladder.
func RunFig10(ctx context.Context, o Options, alg Algorithm) error {
	o.defaults()
	kind := o.datasetFor(alg)
	systems := append([]string{"pregelix"}, kindNames(fig10Systems)...)
	grid := map[float64]map[string]RunResult{}
	var ratios []float64

	for i, target := range o.Ratios {
		g, ratio := o.buildDataset(kind, target, int64(i+1))
		ratios = append(ratios, ratio)
		row := map[string]RunResult{}
		job := o.jobFor(alg, fmt.Sprintf("%s-r%d", alg, i))
		row["pregelix"] = o.runPregelix(ctx, job, g, o.Nodes)
		for _, bk := range fig10Systems {
			bjob := o.jobFor(alg, fmt.Sprintf("%s-b%d", alg, i))
			row[bk.String()] = o.runBaseline(ctx, bk, bjob, g, o.Nodes)
		}
		grid[ratio] = row
	}

	o.printf("Figure 10/%s: overall execution time (%d simulated machines, %s data)\n",
		alg, o.Nodes, kind)
	printGrid(&o, systems, ratios, grid, func(r RunResult) string { return r.Cell() })
	o.printf("Figure 11/%s: average iteration time\n", alg)
	printGrid(&o, systems, ratios, grid, func(r RunResult) string { return r.IterCell() })
	return nil
}

func kindNames(ks []baselines.Kind) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.String()
	}
	return out
}

func printGrid(o *Options, systems []string, ratios []float64, grid map[float64]map[string]RunResult, cell func(RunResult) string) {
	o.printf("%-8s", "ratio")
	for _, s := range systems {
		o.printf(" %12s", s)
	}
	o.printf("\n")
	sorted := append([]float64(nil), ratios...)
	sort.Float64s(sorted)
	for _, r := range sorted {
		o.printf("%-8.3f", r)
		for _, s := range systems {
			o.printf(" %12s", cell(grid[r][s]))
		}
		o.printf("\n")
	}
}

// RunFig12a regenerates Figure 12(a): Pregelix PageRank parallel speedup
// from Nodes/4 to Nodes machines for four dataset sizes.
func RunFig12a(ctx context.Context, o Options) error {
	o.defaults()
	machines := speedupLadder(o.Nodes)
	sizes := map[string]float64{"X-Small": 0.06, "Small": 0.10, "Medium": 0.16, "Large": 0.24}
	names := []string{"X-Small", "Small", "Medium", "Large"}

	o.printf("Figure 12(a): Pregelix PageRank relative avg iteration time (1.0 at %d machines)\n", machines[0])
	o.printf("%-10s", "machines")
	for _, n := range names {
		o.printf(" %10s", n)
	}
	o.printf("\n")
	base := map[string]time.Duration{}
	for _, m := range machines {
		o.printf("%-10d", m)
		for i, n := range names {
			g, _ := o.buildDataset(WebmapData, sizes[n], int64(20+i))
			job := o.jobFor(PageRank, fmt.Sprintf("f12a-%s-%d", n, m))
			res := o.runPregelix(ctx, job, g, m)
			if res.Failed {
				o.printf(" %10s", "FAIL")
				continue
			}
			if _, ok := base[n]; !ok {
				base[n] = res.AvgIteration
			}
			o.printf(" %10.3f", res.AvgIteration.Seconds()/base[n].Seconds())
		}
		o.printf("\n")
	}
	return nil
}

func speedupLadder(maxNodes int) []int {
	quarter := maxNodes / 4
	if quarter < 1 {
		quarter = 1
	}
	return []int{quarter, quarter * 2, quarter * 3, maxNodes}
}

// RunFig12b regenerates Figure 12(b): PageRank speedup on the X-Small
// dataset for Pregelix, Giraph, GraphLab and GraphX.
func RunFig12b(ctx context.Context, o Options) error {
	o.defaults()
	machines := speedupLadder(o.Nodes)
	g, _ := o.buildDataset(WebmapData, 0.06, 21)
	systems := []string{"pregelix", "giraph-mem", "graphlab", "graphx"}

	o.printf("Figure 12(b): PageRank relative avg iteration time, Webmap-X-Small\n")
	o.printf("%-10s", "machines")
	for _, s := range systems {
		o.printf(" %12s", s)
	}
	o.printf("\n")
	base := map[string]time.Duration{}
	for _, m := range machines {
		o.printf("%-10d", m)
		for _, s := range systems {
			var res RunResult
			job := o.jobFor(PageRank, fmt.Sprintf("f12b-%s-%d", s, m))
			if s == "pregelix" {
				res = o.runPregelix(ctx, job, g, m)
			} else {
				res = o.runBaseline(ctx, kindOf(s), job, g, m)
			}
			if res.Failed {
				o.printf(" %12s", "FAIL")
				continue
			}
			if _, ok := base[s]; !ok {
				base[s] = res.AvgIteration
			}
			o.printf(" %12.3f", res.AvgIteration.Seconds()/base[s].Seconds())
		}
		o.printf("\n")
	}
	return nil
}

func kindOf(s string) baselines.Kind {
	switch s {
	case "giraph-mem":
		return baselines.GiraphMem
	case "giraph-ooc":
		return baselines.GiraphOOC
	case "graphlab":
		return baselines.GraphLab
	case "graphx":
		return baselines.GraphX
	default:
		return baselines.Hama
	}
}

// RunFig12c regenerates Figure 12(c): Pregelix scaleup — dataset size
// grows proportionally with machine count; ideal is a flat 1.0.
func RunFig12c(ctx context.Context, o Options) error {
	o.defaults()
	machines := speedupLadder(o.Nodes)
	algs := []Algorithm{PageRank, SSSP, CC}
	o.printf("Figure 12(c): Pregelix relative avg iteration time at matched scale (ideal = 1.0)\n")
	o.printf("%-10s", "scale")
	for _, a := range algs {
		o.printf(" %10s", a)
	}
	o.printf("\n")
	base := map[Algorithm]time.Duration{}
	for _, m := range machines {
		scale := float64(m) / float64(o.Nodes)
		o.printf("%-10.2f", scale)
		for _, a := range algs {
			per := o
			per.Nodes = m
			g, _ := per.buildDataset(per.datasetFor(a), 0.10, int64(30+m))
			job := o.jobFor(a, fmt.Sprintf("f12c-%s-%d", a, m))
			res := per.runPregelix(ctx, job, g, m)
			if res.Failed {
				o.printf(" %10s", "FAIL")
				continue
			}
			if _, ok := base[a]; !ok {
				base[a] = res.AvgIteration
			}
			o.printf(" %10.3f", res.AvgIteration.Seconds()/base[a].Seconds())
		}
		o.printf("\n")
	}
	return nil
}

// RunFig13 regenerates Figure 13: completed PageRank jobs per hour at
// concurrency 1-3 on four dataset sizes, for Pregelix and the baselines.
func RunFig13(ctx context.Context, o Options) error {
	o.defaults()
	sizes := []struct {
		name  string
		ratio float64
	}{
		{"X-Small", 0.05}, {"Small", 0.11}, {"Medium", 0.18}, {"Large", 0.45},
	}
	systems := append([]string{"pregelix"}, kindNames(fig10Systems)...)
	for _, sz := range sizes {
		g, ratio := o.buildDataset(WebmapData, sz.ratio, 40)
		o.printf("Figure 13 (%s, ratio %.3f): jobs per hour vs concurrency\n", sz.name, ratio)
		o.printf("%-12s %12s %12s %12s\n", "system", "1 job", "2 jobs", "3 jobs")
		for _, s := range systems {
			o.printf("%-12s", s)
			for conc := 1; conc <= 3; conc++ {
				jph, ok := o.throughput(ctx, s, g, conc, sz.name)
				if !ok {
					o.printf(" %12s", "FAIL")
				} else {
					o.printf(" %12.1f", jph)
				}
			}
			o.printf("\n")
		}
	}
	return nil
}

// throughput runs `conc` concurrent PageRank jobs and returns jobs/hour.
func (o *Options) throughput(ctx context.Context, system string, g *graphgen.Graph, conc int, tag string) (float64, bool) {
	if system == "pregelix" {
		// One shared cluster; jobs submitted concurrently contend for
		// the same node budgets and spill as needed.
		baseDir, err := os.MkdirTemp(o.WorkDir, "fig13-")
		if err != nil {
			return 0, false
		}
		defer os.RemoveAll(baseDir)
		rt, err := core.NewRuntime(core.Options{
			BaseDir:    baseDir,
			Nodes:      o.Nodes,
			NodeConfig: hyracks.NodeConfig{RAMBytes: o.RAMPerNode, PageSize: 4096},
		})
		if err != nil {
			return 0, false
		}
		defer rt.Close()
		var buf strings.Builder
		if _, err := graphgen.WriteText(&buf, g); err != nil {
			return 0, false
		}
		input := "/in/fig13-" + tag
		if err := rt.DFS.WriteFile(input, []byte(buf.String())); err != nil {
			return 0, false
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, conc)
		for j := 0; j < conc; j++ {
			j := j
			wg.Add(1)
			go func() {
				defer wg.Done()
				job := algorithms.NewPageRankJob(fmt.Sprintf("f13-%s-c%d-j%d", tag, conc, j), input, "", o.PageRankIterations)
				_, errs[j] = rt.Run(ctx, job)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, false
			}
		}
		elapsed := time.Since(start)
		return float64(conc) / elapsed.Hours(), true
	}
	// Baselines: each concurrent job is its own worker set sharing the
	// same per-machine budgets, so memory is divided across jobs (the
	// paper's observed failure mode for concurrent workloads).
	kind := kindOf(system)
	start := time.Now()
	var wg sync.WaitGroup
	fails := make([]bool, conc)
	for j := 0; j < conc; j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := algorithms.NewPageRankJob(fmt.Sprintf("f13b-%s-%d", tag, j), "", "", o.PageRankIterations)
			tmp, err := os.MkdirTemp(o.WorkDir, "fig13b-")
			if err != nil {
				fails[j] = true
				return
			}
			defer os.RemoveAll(tmp)
			res := baselines.Run(ctx, kind, job, g, baselines.Config{
				Workers:      o.Nodes,
				RAMPerWorker: o.RAMPerNode / int64(conc), // contended share
				TempDir:      tmp,
			})
			fails[j] = res.Failed()
		}()
	}
	wg.Wait()
	for _, f := range fails {
		if f {
			return 0, false
		}
	}
	return float64(conc) / time.Since(start).Hours(), true
}

func runFig14(alg Algorithm) func(ctx context.Context, o Options) error {
	return func(ctx context.Context, o Options) error { return RunFig14(ctx, o, alg) }
}

// RunFig14 regenerates one panel of Figure 14: the index left outer
// join plan against the index full outer join plan.
func RunFig14(ctx context.Context, o Options, alg Algorithm) error {
	o.defaults()
	kind := o.datasetFor(alg)
	o.printf("Figure 14/%s: avg iteration time, LOJ vs FOJ (%d machines)\n", alg, o.Nodes)
	o.printf("%-8s %14s %14s\n", "ratio", "left-outer", "full-outer")
	for i, target := range o.Ratios {
		g, ratio := o.buildDataset(kind, target, int64(50+i))
		loj := o.jobFor(alg, fmt.Sprintf("f14-loj-%s-%d", alg, i))
		loj.Join = pregel.LeftOuterJoin
		foj := o.jobFor(alg, fmt.Sprintf("f14-foj-%s-%d", alg, i))
		foj.Join = pregel.FullOuterJoin
		lres := o.runPregelix(ctx, loj, g, o.Nodes)
		fres := o.runPregelix(ctx, foj, g, o.Nodes)
		o.printf("%-8.3f %14s %14s\n", ratio, lres.IterCell(), fres.IterCell())
	}
	return nil
}

// RunFig15 regenerates Figure 15: SSSP average iteration time of the
// Pregelix left-outer-join plan against the other systems, at 3/4 and
// full cluster size.
func RunFig15(ctx context.Context, o Options) error {
	o.defaults()
	for _, m := range []int{o.Nodes * 3 / 4, o.Nodes} {
		if m < 1 {
			m = 1
		}
		o.printf("Figure 15 (%d machines): SSSP avg iteration time\n", m)
		systems := []string{"pregelix-loj", "giraph-mem", "graphlab", "hama"}
		o.printf("%-8s", "ratio")
		for _, s := range systems {
			o.printf(" %14s", s)
		}
		o.printf("\n")
		for i, target := range o.Ratios {
			per := o
			per.Nodes = m
			g, ratio := per.buildDataset(BTCData, target, int64(70+i))
			o.printf("%-8.3f", ratio)
			for _, s := range systems {
				var res RunResult
				if s == "pregelix-loj" {
					job := algorithms.NewSSSPJob(fmt.Sprintf("f15-%d-%d", m, i), "/in/f15", "", 1)
					res = per.runPregelix(ctx, job, g, m)
				} else {
					job := algorithms.NewSSSPJob(fmt.Sprintf("f15b-%d-%d", m, i), "", "", 1)
					res = per.runBaseline(ctx, kindOf(s), job, g, m)
				}
				o.printf(" %14s", res.IterCell())
			}
			o.printf("\n")
		}
	}
	return nil
}

// RunSec76 reports core-module lines of code, the software simplicity
// comparison of Section 7.6 (Pregelix-on-a-dataflow vs a from-scratch
// process-centric runtime).
func RunSec76(ctx context.Context, o Options) error {
	o.defaults()
	counts, err := CountLines()
	if err != nil {
		return err
	}
	o.printf("Section 7.6: implementation effort (non-test, non-comment lines)\n")
	total := 0
	for _, c := range counts {
		o.printf("%-28s %8d lines\n", c.Module, c.Lines)
		total += c.Lines
	}
	o.printf("%-28s %8d lines\n", "total", total)
	o.printf("(paper: pregelix-core 8,514 lines vs giraph-core 32,197 lines)\n")
	return nil
}

// RunAblateGroupBy compares the four message-combination strategies of
// Figure 7 on PageRank.
func RunAblateGroupBy(ctx context.Context, o Options) error {
	o.defaults()
	g, ratio := o.buildDataset(WebmapData, 0.12, 80)
	o.printf("Ablation (Fig 7): group-by strategies, PageRank, ratio %.3f, %d machines\n", ratio, o.Nodes)
	o.printf("%-32s %14s %14s\n", "strategy", "overall", "avg iter")
	cases := []struct {
		name string
		gb   pregel.GroupByKind
		conn pregel.ConnectorKind
	}{
		{"sort + m:n partitioning", pregel.SortGroupBy, pregel.UnmergeConnector},
		{"hashsort + m:n partitioning", pregel.HashSortGroupBy, pregel.UnmergeConnector},
		{"sort + m:n partitioning-merge", pregel.SortGroupBy, pregel.MergeConnector},
		{"hashsort + m:n partition-merge", pregel.HashSortGroupBy, pregel.MergeConnector},
	}
	for i, c := range cases {
		job := o.jobFor(PageRank, fmt.Sprintf("ablgb-%d", i))
		job.GroupBy, job.Connector = c.gb, c.conn
		res := o.runPregelix(ctx, job, g, o.Nodes)
		o.printf("%-32s %14s %14s\n", c.name, res.Cell(), res.IterCell())
	}
	return nil
}

// RunAblateConnector compares the merging connector against the plain
// partitioning connector as the simulated cluster grows (the Yahoo!
// tech-report experiment referenced in Section 7.5).
func RunAblateConnector(ctx context.Context, o Options) error {
	o.defaults()
	o.printf("Ablation: connector policy vs cluster size (PageRank avg iter)\n")
	o.printf("%-10s %14v %14v\n", "machines", pregel.MergeConnector, pregel.UnmergeConnector)
	for _, m := range speedupLadder(o.Nodes) {
		per := o
		per.Nodes = m
		g, _ := per.buildDataset(WebmapData, 0.08, int64(90+m))
		merge := o.jobFor(PageRank, fmt.Sprintf("ablc-m-%d", m))
		merge.Connector = pregel.MergeConnector
		unmerge := o.jobFor(PageRank, fmt.Sprintf("ablc-u-%d", m))
		unmerge.Connector = pregel.UnmergeConnector
		mres := per.runPregelix(ctx, merge, g, m)
		ures := per.runPregelix(ctx, unmerge, g, m)
		o.printf("%-10d %14s %14s\n", m, mres.IterCell(), ures.IterCell())
	}
	return nil
}

// RunAblatePipelining measures Section 5.6's job pipelining: a chain of
// path-merge rounds run as one pipelined job array versus as separate
// jobs that dump to and reload from the DFS between rounds.
func RunAblatePipelining(ctx context.Context, o Options) error {
	o.defaults()
	const rounds = 5
	chain := graphgen.Chain(4000, 300, 7)

	runPipelined := func() (time.Duration, error) {
		baseDir, err := os.MkdirTemp(o.WorkDir, "pipe-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(baseDir)
		rt, err := core.NewRuntime(core.Options{
			BaseDir: baseDir, Nodes: o.Nodes,
			NodeConfig: hyracks.NodeConfig{RAMBytes: o.RAMPerNode, PageSize: 4096},
		})
		if err != nil {
			return 0, err
		}
		defer rt.Close()
		var buf strings.Builder
		if _, err := graphgen.WriteText(&buf, chain); err != nil {
			return 0, err
		}
		if err := rt.DFS.WriteFile("/in/chain", []byte(buf.String())); err != nil {
			return 0, err
		}
		var jobs []*pregel.Job
		for r := 0; r < rounds; r++ {
			jobs = append(jobs, algorithms.NewPathMergeRoundJob("pipe", "/in/chain", "/out/pipe", r))
		}
		start := time.Now()
		_, err = rt.RunPipeline(ctx, jobs)
		return time.Since(start), err
	}

	runSeparate := func() (time.Duration, error) {
		baseDir, err := os.MkdirTemp(o.WorkDir, "sep-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(baseDir)
		rt, err := core.NewRuntime(core.Options{
			BaseDir: baseDir, Nodes: o.Nodes,
			NodeConfig: hyracks.NodeConfig{RAMBytes: o.RAMPerNode, PageSize: 4096},
		})
		if err != nil {
			return 0, err
		}
		defer rt.Close()
		var buf strings.Builder
		if _, err := graphgen.WriteText(&buf, chain); err != nil {
			return 0, err
		}
		if err := rt.DFS.WriteFile("/round0", []byte(buf.String())); err != nil {
			return 0, err
		}
		start := time.Now()
		for r := 0; r < rounds; r++ {
			in := fmt.Sprintf("/round%d", r)
			out := fmt.Sprintf("/round%d", r+1)
			job := algorithms.NewPathMergeRoundJob(fmt.Sprintf("sep%d", r), in, out, r)
			if _, err := rt.Run(ctx, job); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	piped, err := runPipelined()
	if err != nil {
		return err
	}
	sep, err := runSeparate()
	if err != nil {
		return err
	}
	o.printf("Ablation (Sec 5.6): %d path-merge rounds\n", rounds)
	o.printf("%-34s %12.2fs\n", "pipelined job array", piped.Seconds())
	o.printf("%-34s %12.2fs\n", "separate jobs (DFS round-trips)", sep.Seconds())
	o.printf("speedup from pipelining: %.2fx\n", sep.Seconds()/piped.Seconds())
	return nil
}
