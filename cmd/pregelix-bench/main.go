// Command pregelix-bench regenerates the paper's tables and figures on
// the simulated cluster. Each experiment prints rows shaped like the
// corresponding artifact in the paper's Section 7.
//
// Usage:
//
//	pregelix-bench -list
//	pregelix-bench -experiment fig10a [-nodes 8] [-ram 1048576]
//	pregelix-bench -experiment all [-json BENCH_PR3.json]
//
// With -json a run also writes a machine-readable report: per-experiment
// wall time and per-run wall time, supersteps, I/O bytes, and — for the
// framepath/wirepath experiments — allocations per tuple and shuffle
// throughput over in-process channels vs loopback TCP. There is no
// default path: a report overwrites what it names, and the committed
// BENCH_PR*.json each hold one PR's experiments.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pregelix/internal/bench"
)

// experimentReport is one experiment's entry in the JSON report.
type experimentReport struct {
	ID          string            `json:"id"`
	Title       string            `json:"title"`
	WallSeconds float64           `json:"wallSeconds"`
	Runs        []bench.RunMetric `json:"runs,omitempty"`
}

// benchReport is the top-level BENCH_PR<n>.json document.
type benchReport struct {
	GeneratedAt string             `json:"generatedAt"`
	Nodes       int                `json:"nodes"`
	RAMPerNode  int64              `json:"ramPerNode"`
	Experiments []experimentReport `json:"experiments"`
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (see -list) or 'all'")
		list       = flag.Bool("list", false, "list experiment ids")
		nodes      = flag.Int("nodes", 8, "simulated cluster size")
		ram        = flag.Int64("ram", 1<<20, "per-machine RAM budget in bytes")
		ratios     = flag.String("ratios", "", "comma-separated dataset/RAM ratios (default per-experiment)")
		iterations = flag.Int("pr-iterations", 5, "PageRank iterations")
		jsonPath   = flag.String("json", "", "write a machine-readable report to this path")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "pregelix-bench: -experiment or -list required")
		flag.Usage()
		os.Exit(2)
	}

	opts := bench.Options{
		Nodes:              *nodes,
		RAMPerNode:         *ram,
		PageRankIterations: *iterations,
		Out:                os.Stdout,
	}
	if *ratios != "" {
		for _, part := range strings.Split(*ratios, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pregelix-bench: bad ratio %q: %v\n", part, err)
				os.Exit(2)
			}
			opts.Ratios = append(opts.Ratios, r)
		}
	}

	ctx := context.Background()
	report := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Nodes:       *nodes,
		RAMPerNode:  *ram,
	}
	run := func(e bench.Experiment) {
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		met := &bench.Metrics{}
		per := opts
		per.Metrics = met
		start := time.Now()
		if err := e.Run(ctx, per); err != nil {
			fmt.Fprintf(os.Stderr, "pregelix-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		runs := met.Runs()
		for i := range runs {
			runs[i].Experiment = e.ID
		}
		report.Experiments = append(report.Experiments, experimentReport{
			ID:          e.ID,
			Title:       e.Title,
			WallSeconds: time.Since(start).Seconds(),
			Runs:        runs,
		})
		fmt.Println()
	}
	if *experiment == "all" {
		for _, e := range bench.Experiments() {
			run(e)
		}
	} else {
		e, ok := bench.Find(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "pregelix-bench: unknown experiment %q (try -list)\n", *experiment)
			os.Exit(2)
		}
		run(e)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pregelix-bench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pregelix-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pregelix-bench: wrote %s (%d experiments)\n", *jsonPath, len(report.Experiments))
	}
}
