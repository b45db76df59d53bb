// Command pregelix runs one built-in graph algorithm over a local graph
// file on the simulated Pregelix cluster, with the physical plan hints
// of Section 5.3 exposed as flags — or serves a multi-tenant cluster
// over HTTP that accepts concurrent job submissions.
//
// Usage:
//
//	pregelix -algorithm pagerank -input graph.txt -output ranks.txt \
//	         -nodes 4 -join fullouter -groupby sort -connector unmerge
//
//	pregelix serve -listen 127.0.0.1:8080 -nodes 4 -max-concurrent 2
//
//	pregelix serve -listen 127.0.0.1:8080 -workers 2 -cluster-listen 127.0.0.1:9090
//	pregelix worker -cc 127.0.0.1:9090 -nodes 2
//
// In serve mode, clients upload graphs with PUT /files/<dfs-path>,
// submit jobs with POST /jobs, poll GET /jobs and GET /jobs/<id>,
// cancel with DELETE /jobs/<id>, and read cluster/scheduler metrics
// from GET /stats.
//
// With -workers N, serve becomes a cluster controller: it waits for N
// `pregelix worker` processes to register over the control plane, then
// schedules every job across them. Each worker hosts its share of the
// node controllers as a separate OS process, and connector shuffles
// move packed frame images between workers over the wire transport
// (internal/wire) instead of in-process channels.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"pregelix/internal/core"
	"pregelix/internal/hyracks"
	"pregelix/pregel"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			serveMain(os.Args[2:])
			return
		case "worker":
			workerMain(os.Args[2:])
			return
		}
	}
	var (
		algorithm  = flag.String("algorithm", "pagerank", "pagerank | sssp | cc | reachability | bfs | triangles | cliques | sample | pathmerge | deltapagerank | kcore")
		input      = flag.String("input", "", "input graph file (adjacency text)")
		output     = flag.String("output", "", "output file (default: stdout)")
		nodes      = flag.Int("nodes", 4, "simulated cluster size")
		ram        = flag.Int64("ram", 0, "per-machine RAM budget in bytes (0 = unlimited)")
		partitions = flag.Int("partitions-per-node", 1, "graph partitions per machine")
		source     = flag.Uint64("source", 1, "source vertex (sssp/reachability/bfs)")
		iterations = flag.Int("iterations", 10, "iterations (pagerank) / rounds (pathmerge)")
		join       = flag.String("join", "", pregel.HintValues("join")+" (default: per-algorithm)")
		groupby    = flag.String("groupby", "", pregel.HintValues("groupby"))
		connector  = flag.String("connector", "", pregel.HintValues("connector"))
		checkpoint = flag.Int("checkpoint-every", 0, "checkpoint every N supersteps (0 = off)")
		verbose    = flag.Bool("v", false, "print per-superstep statistics")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "pregelix: -input is required")
		flag.Usage()
		os.Exit(2)
	}

	// The same job builder as serve's and the workers'.
	job, err := buildServeJob(&jobRequest{
		Algorithm: *algorithm, Input: "/in/graph", Output: "/out/result",
		Source: source, Iterations: *iterations,
		Join: *join, GroupBy: *groupby, Connector: *connector,
		CheckpointEvery: *checkpoint,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pregelix:", err)
		os.Exit(2)
	}

	baseDir, err := os.MkdirTemp("", "pregelix-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(baseDir)
	rt, err := core.NewRuntime(core.Options{
		BaseDir:           baseDir,
		Nodes:             *nodes,
		PartitionsPerNode: *partitions,
		NodeConfig:        hyracks.NodeConfig{RAMBytes: *ram},
	})
	if err != nil {
		fatal(err)
	}
	defer rt.Close()

	data, err := os.ReadFile(*input)
	if err != nil {
		fatal(err)
	}
	if err := rt.DFS.WriteFile(job.InputPath, data); err != nil {
		fatal(err)
	}

	stats, err := rt.Run(context.Background(), job)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "pregelix: %s finished: %d supersteps, %d vertices, %d messages, load %v, run %v\n",
		job.Name, stats.Supersteps, stats.FinalState.NumVertices, stats.TotalMessages,
		stats.LoadDuration.Round(1e6), stats.RunDuration.Round(1e6))
	if *verbose {
		for _, ss := range stats.SuperstepStats {
			fmt.Fprintf(os.Stderr, "  superstep %3d: %8v  msgs=%-10d live=%-10d io=%dB\n",
				ss.Superstep, ss.Duration.Round(1e5), ss.Messages, ss.LiveVertices, ss.IOBytes)
		}
	}

	result, err := rt.DFS.ReadFile(job.OutputPath)
	if err != nil {
		fatal(err)
	}
	if *output == "" {
		os.Stdout.Write(result)
		return
	}
	if err := os.WriteFile(*output, result, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pregelix:", err)
	os.Exit(1)
}
