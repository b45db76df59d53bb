package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"pregelix/internal/graphgen"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// runConfig is one workload run, as the command line (or a test) asks
// for it.
type runConfig struct {
	Workload string
	Seed     int64
	// Seconds is the least time the run measures; fixed-size jobs are
	// repeated until it has passed.
	Seconds float64
	Traced  bool
	// Scale multiplies every input size and op count. 1 is what the
	// workloads are defined at; tests smoke-run at 0.05.
	Scale float64
	// ScratchRoot hosts the run's temp dir, which is removed at the end.
	ScratchRoot string
	// TraceOut, for a traced run, is the Chrome-trace file to write
	// ("" = none).
	TraceOut string
}

// scaled applies the run's scale to a size, never going below floor.
func (c *runConfig) scaled(n, floor int) int {
	v := int(math.Round(float64(n) * c.Scale))
	if v < floor {
		return floor
	}
	return v
}

// Machine sizing: nproc is 2 where this was written, so every workload
// uses 2 simulated nodes x 1 partition (or 2 workers x 1 node) and at
// most 2 client goroutines.
const (
	simNodes  = 2
	pageSize  = 4096
	ramFit    = 64 << 20 // per node: dataset << RAM, nothing evicts
	ramSpill  = 1 << 20  // per node: dataset/aggregated RAM ~1.4
	inputPath = "/in/graph"
)

// batchSpec describes one of the four batch workloads.
type batchSpec struct {
	graph func(c *runConfig) *graphgen.Graph
	// job builds a fresh job; names must be unique within a runtime.
	job        func(name, out string) *pregel.Job
	ramPerNode int64
	cluster    bool
	// tol is how far a dumped value may sit from the oracle's.
	tol tolerance
	// warmSupersteps caps the discarded warm-up job (0 = run it whole).
	// sssp_chain's 4000 supersteps repeat one code path, so a tenth of
	// them warms the process as well as all of them.
	warmSupersteps func(c *runConfig) int
}

const (
	prFitIterations   = 10
	prSpillIterations = 5
	checkpointEvery   = 3
)

func webmapFit(c *runConfig) *graphgen.Graph {
	return graphgen.Webmap(c.scaled(30000, 200), 8, c.Seed)
}

var batchSpecs = map[string]batchSpec{
	wPRFit: {
		graph: webmapFit,
		job: func(name, out string) *pregel.Job {
			return algorithms.NewPageRankJob(name, inputPath, out, prFitIterations)
		},
		ramPerNode: ramFit,
		tol:        tolPageRank,
	},
	wPRSpill: {
		graph: func(c *runConfig) *graphgen.Graph {
			return graphgen.Webmap(c.scaled(60000, 400), 8, c.Seed)
		},
		job: func(name, out string) *pregel.Job {
			return algorithms.NewPageRankJob(name, inputPath, out, prSpillIterations)
		},
		ramPerNode: ramSpill,
		tol:        tolPageRank,
	},
	wSSSPChain: {
		graph: func(c *runConfig) *graphgen.Graph {
			return graphgen.Chain(c.scaled(4000, 40), c.scaled(400, 4), c.Seed)
		},
		job: func(name, out string) *pregel.Job {
			j := algorithms.NewSSSPJob(name, inputPath, out, 1)
			j.Join = pregel.LeftOuterJoin
			return j
		},
		ramPerNode:     ramFit,
		tol:            tolExact,
		warmSupersteps: func(c *runConfig) int { return c.scaled(400, 4) },
	},
	wPRCluster: {
		graph: webmapFit,
		job: func(name, out string) *pregel.Job {
			j := algorithms.NewPageRankJob(name, inputPath, out, prFitIterations)
			j.CheckpointEvery = checkpointEvery
			return j
		},
		ramPerNode: ramFit,
		tol:        tolPageRank,
		cluster:    true,
	},
}

// clusterJobSpec is the opaque job descriptor the coordinator ships to
// every worker; each side rebuilds the same job from it.
type clusterJobSpec struct {
	Algorithm       string `json:"algorithm"` // "pagerank" or "deltapagerank"
	CheckpointEvery int    `json:"checkpointEvery,omitempty"`
}

func (s clusterJobSpec) raw() json.RawMessage {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of a string and an int always marshals
	}
	return b
}

// buildClusterJob is the workers' JobBuilder (and the coordinator's own
// build of the same descriptor).
func buildClusterJob(raw json.RawMessage) (*pregel.Job, error) {
	var s clusterJobSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	switch s.Algorithm {
	case "pagerank":
		j := algorithms.NewPageRankJob("pr", inputPath, "", prFitIterations)
		j.CheckpointEvery = s.CheckpointEvery
		return j, nil
	case "deltapagerank":
		return algorithms.NewDeltaPageRankJob("dpr", inputPath, "", 0), nil
	default:
		return nil, fmt.Errorf("benchmark: unknown cluster algorithm %q", s.Algorithm)
	}
}

// graphText renders g in the engine's adjacency text format.
func graphText(g *graphgen.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
