package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// marshalFull renders the whole result, for `run` to read back from the
// child it started.
func marshalFull(r *result) ([]byte, error) { return json.Marshal(r) }

// suiteFlags are the flags `run`, `trace` and `repeat` share.
type suiteFlags struct {
	seed    int64
	seconds float64
	scale   float64
	out     string
}

func (s *suiteFlags) register(fs *flag.FlagSet) {
	fs.Int64Var(&s.seed, "seed", 1, "the only source of randomness: every input is generated from it")
	fs.Float64Var(&s.seconds, "seconds", runSeconds, "least time each workload measures")
	fs.Float64Var(&s.scale, "scale", 1, "multiplies input sizes and op counts")
	fs.StringVar(&s.out, "out", filepath.Join(".bench_build", "trace"), "traced run: directory for the Chrome traces")
}

// runChild runs one workload in a child process of its own, so its peak
// memory is its own and no workload's heap warms the next one's.
func runChild(s *suiteFlags, workload string, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--workload", workload,
		"--seed", strconv.FormatInt(s.seed, 10),
		"--seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64),
		"--scale", strconv.FormatFloat(s.scale, 'g', -1, 64),
		"--full",
	}
	if traced {
		args = append(args, "--trace", "1", "--trace-out", filepath.Join(s.out, workload+".trace.json"))
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("workload %s: unreadable result: %w", workload, err)
	}
	return &res, nil
}

// runSuite runs every workload in its own child and returns the results
// in workloadNames order.
func runSuite(s *suiteFlags, traced bool) ([]*result, error) {
	var out []*result
	for _, w := range workloadNames {
		fmt.Fprintf(os.Stderr, "benchmark: running %s (seed %d)...\n", w, s.seed)
		r, err := runChild(s, w, traced)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// printResult prints every metric of one workload by name, with unit,
// sample count, median and quartiles.
func printResult(r *result) {
	kind := "timed run"
	if r.Traced {
		kind = "traced run"
	}
	fmt.Printf("\n%s  (%s, seed %d)  attempted %d, failed %d\n", r.Workload, kind, r.Seed, r.Attempted, r.Failed)
	fmt.Printf("  %-46s %-7s %7s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3")
	for _, name := range r.sortedMetricNames() {
		m := r.Metrics[name]
		fmt.Printf("  %-46s %-7s %7d %14.6g %14.6g %14.6g\n", name, metricByName[name].Unit, m.N, m.Value, m.Q1, m.Q3)
	}
	for _, p := range r.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

// cmdRun is `run` (timed) and `trace` (traced): every workload, every
// metric by name. It exits non-zero when any operation failed.
func cmdRun(args []string, traced bool) int {
	name := "run"
	if traced {
		name = "trace"
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var s suiteFlags
	s.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	results, err := runSuite(&s, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	failed := false
	for _, r := range results {
		printResult(r)
		failed = failed || r.Failed > 0
	}
	if traced {
		fmt.Printf("\nChrome traces (chrome://tracing, ui.perfetto.dev) are in %s\n", s.out)
	}
	if failed {
		return 1
	}
	return 0
}

// cmdRepeat runs the whole suite -sets times and prints, per bounded
// metric and workload, how far the sets' values lie apart beside the
// bound; it exits non-zero when a bound is exceeded.
func cmdRepeat(args []string) int {
	fs := flag.NewFlagSet("repeat", flag.ContinueOnError)
	var s suiteFlags
	s.register(fs)
	sets := fs.Int("sets", 2, "how many full sets of runs to compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sets < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: repeat needs at least 2 sets")
		return 2
	}
	var all [][]*result
	for i := 0; i < *sets; i++ {
		fmt.Fprintf(os.Stderr, "benchmark: set %d of %d\n", i+1, *sets)
		rs, err := runSuite(&s, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		all = append(all, rs)
	}
	exceeded := compareSets(all, os.Stdout)
	if exceeded > 0 {
		fmt.Printf("\n%d metric(s) moved by more than their bound between sets\n", exceeded)
		return 1
	}
	fmt.Printf("\nevery bounded metric repeated within its bound\n")
	return 0
}

// compareSets prints the comparison and returns how many (metric,
// workload) pairs exceeded their bound. The difference is the distance
// between the largest and the smallest set value as a share of the
// smallest.
func compareSets(all [][]*result, w io.Writer) int {
	exceeded := 0
	fmt.Fprintf(w, "%-12s %-28s %14s %14s %9s %7s\n", "workload", "metric", "min", "max", "diff", "bound")
	for i, first := range all[0] {
		for _, d := range catalogue {
			bound := d.Bound
			if d.Counter {
				bound = exactBound
			}
			if bound == 0 && d.Name != "fail_share" {
				continue
			}
			if _, ok := first.Metrics[d.Name]; !ok {
				continue
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, set := range all {
				v := set[i].Metrics[d.Name].Value
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			diff := 0.0
			if hi != lo {
				diff = (hi - lo) / math.Abs(lo)
			}
			mark := ""
			if diff > bound || (d.Name == "fail_share" && hi > 0) {
				mark = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(w, "%-12s %-28s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				first.Workload, d.Name, lo, hi, diff*100, bound*100, mark)
		}
	}
	return exceeded
}

// cmdManifest prints BENCHMARK.json as the catalogue defines it.
func cmdManifest() int {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", data)
	return 0
}
