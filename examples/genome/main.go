// Genome: the Genomix use case of the paper's Section 6 — iterative De
// Bruijn path merging with heavy vertex addition/removal, run as a
// pipelined job array (Section 5.6). The paper recommends LSM vertex
// storage for this workload; vertices live in a B-tree here, which
// measured faster on every rung (ARCHITECTURE.md, "Section 5.2: one
// vertex store").
//
//	go run ./examples/genome
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"pregelix/internal/core"
	"pregelix/internal/graphgen"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

func main() {
	baseDir, err := os.MkdirTemp("", "pregelix-genome-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(baseDir)
	rt, err := core.NewRuntime(core.Options{BaseDir: baseDir, Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	// A De Bruijn-like graph: one long backbone path plus branch stubs
	// (the single paths a genome assembler collapses between cleaning
	// rounds).
	g := graphgen.Chain(8000, 500, 11)
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, g); err != nil {
		log.Fatal(err)
	}
	if err := rt.DFS.WriteFile("/genome/debruijn", buf.Bytes()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input De Bruijn-like graph: %d vertices, %d edges\n",
		g.NumVertices(), g.NumEdges())

	// Chain one job per merge round, pipelined: intermediate state
	// never round-trips through the DFS and the vertex indexes are
	// reused across jobs.
	const rounds = 8
	var jobs []*pregel.Job
	for r := 0; r < rounds; r++ {
		jobs = append(jobs, algorithms.NewPathMergeRoundJob("genome-merge", "/genome/debruijn", "/genome/contigs", r))
	}
	all, err := rt.RunPipeline(context.Background(), jobs)
	if err != nil {
		log.Fatal(err)
	}
	for r, stats := range all {
		fmt.Printf("round %d: %d vertices remain (%d supersteps, %v)\n",
			r+1, stats.FinalState.NumVertices, stats.Supersteps,
			stats.RunDuration.Round(1e6))
	}
	final := all[len(all)-1].FinalState
	fmt.Printf("merged %d chain vertices into %d contig vertices\n",
		int64(g.NumVertices())-final.NumVertices, final.NumVertices)
	if !rt.DFS.Exists("/genome/contigs") {
		log.Fatal("contigs output missing")
	}
}
