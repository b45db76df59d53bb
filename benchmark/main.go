// Command benchmark is the repo's one benchmark: five named workloads,
// each run in its own process, checked against internal/reference, and
// reported as end-to-end metrics (untraced run) or per-layer metrics
// (traced run with layer drives). See README.md.
//
//	bash benchmark/run.sh --workload pr_fit --seed 1 --seconds 12 --trace 0   (the driver's form)
//	bash benchmark/run.sh run -seed 1        every workload, every metric by name
//	bash benchmark/run.sh trace -seed 1      the traced run: per-layer metrics + Chrome traces
//	bash benchmark/run.sh repeat -sets 2     do two sets of runs agree within the bounds?
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pregelix/internal/tuple"
)

func main() {
	os.Exit(mainExit(os.Args[1:]))
}

func mainExit(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return cmdRun(args[1:], false)
		case "trace":
			return cmdRun(args[1:], true)
		case "repeat":
			return cmdRepeat(args[1:])
		case "manifest":
			return cmdManifest()
		case "yardstick":
			return cmdYardstick(args[1:])
		}
	}
	return cmdWorkload(args)
}

// cmdWorkload runs one workload in this process and prints its result
// as the last line of standard output: the driver's form, and what
// `run` re-executes itself as.
func cmdWorkload(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	cfg := runConfig{}
	fs.StringVar(&cfg.Workload, "workload", "", "one of pr_fit, pr_spill, sssp_chain, pr_cluster, serve_mix")
	fs.Int64Var(&cfg.Seed, "seed", 1, "the only source of randomness: every input is generated from it")
	fs.Float64Var(&cfg.Seconds, "seconds", runSeconds, "least time to measure")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and layer drives")
	fs.Float64Var(&cfg.Scale, "scale", 1, "multiplies input sizes and op counts (tests use 0.05)")
	fs.StringVar(&cfg.ScratchRoot, "scratch", filepath.Join(".bench_build", "scratch"), "directory for the run's temp files")
	fs.StringVar(&cfg.TraceOut, "trace-out", "", "traced run: write the Chrome trace here")
	full := fs.Bool("full", false, "print the whole result (samples, quartiles, problems), not the driver's line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadWhy[cfg.Workload]; !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %v, or a subcommand: run, trace, repeat)\n", cfg.Workload, workloadNames)
		return 2
	}
	cfg.Traced = *trace != 0
	if cfg.Traced && cfg.TraceOut == "" {
		cfg.TraceOut = filepath.Join(".bench_build", "trace", cfg.Workload+".trace.json")
	}

	res, err := runWorkload(context.Background(), &cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.Workload, err)
		return 1
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %s\n", cfg.Workload, p)
	}
	// The driver's line has no room for the pace of an untraced run; a
	// reader of the log can still turn its times back into wall-clock ones.
	pace := res.Metrics["yardstick.pace"]
	fmt.Fprintf(os.Stderr, "benchmark: %s: yardstick pace %.3f (%.3f-%.3f, %d passes); times are reported divided by it\n",
		cfg.Workload, pace.Value, pace.Q1, pace.Q3, pace.N)
	var line []byte
	if *full {
		line, err = marshalFull(res)
	} else {
		line, err = res.contractLine()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	return 0
}

// runWorkload runs one workload start to finish inside a scratch
// directory it removes, and asserts at the end that the system gave
// back what it took: no leased frame, no goroutine left running.
func runWorkload(ctx context.Context, cfg *runConfig) (*result, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("scale must be positive, got %v", cfg.Scale)
	}
	if err := os.MkdirAll(cfg.ScratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.ScratchRoot, cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	goroutines := runtime.NumGoroutine()
	res := newResult(cfg.Workload, cfg.Seed, cfg.Traced)
	var tr *tracer
	if cfg.Traced {
		tr = newTracer(cfg.Workload)
	}

	yard, err := startYardstick(cfg.Scale)
	if err != nil {
		return nil, err
	}
	defer yard.close()

	if cfg.Workload == wServeMix {
		err = runServeMix(ctx, cfg, dir, res, tr, yard)
	} else {
		err = runBatch(ctx, cfg, dir, res, tr, yard)
	}
	if err != nil {
		return nil, err
	}
	if err := yard.close(); err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	res.applyPace(yard.pace())

	leased := tuple.LeasedFrames()
	res.set("tuple.leased_frames_end", single(float64(leased)))
	if leased != 0 {
		res.fail(1, "%d frames still leased at exit", leased)
	}
	if extra := settleGoroutines(goroutines); extra > 0 {
		res.fail(1, "%d goroutines still running at exit", extra)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	res.set("fail_share", single(float64(res.Failed)/float64(res.Attempted)))

	if tr != nil && cfg.TraceOut != "" {
		if err := writeTrace(tr, cfg.TraceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// settleGoroutines waits up to two seconds for the goroutine count to
// fall back to base (connection readers unwind asynchronously after a
// close) and returns how many are still extra.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		extra := runtime.NumGoroutine() - base
		if extra <= 0 || time.Now().After(deadline) {
			return extra
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func writeTrace(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
