package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/internal/reference"
	"pregelix/pregel"
)

// oracle is the expected outcome of a job: internal/reference run on the
// same job and graph.
type oracle struct {
	values     map[uint64]string // vid -> value as the dump renders it
	supersteps int64
	msgsSent   int64 // messages Compute sent, before any combining
	runTime    time.Duration
}

// countingProgram wraps a job's program to count the messages it sends:
// JobStats reports combined messages only, and the group-by drives need
// the raw volume.
type countingProgram struct {
	inner pregel.Program
	sent  *atomic.Int64
}

type countingContext struct {
	pregel.Context
	sent *atomic.Int64
}

func (c countingContext) SendMessage(to pregel.VertexID, m pregel.Value) {
	c.sent.Add(1)
	c.Context.SendMessage(to, m)
}

func (p countingProgram) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	return p.inner.Compute(countingContext{ctx, p.sent}, v, msgs)
}

// runOracle executes job on g with the reference interpreter.
func runOracle(job *pregel.Job, g *graphgen.Graph) (*oracle, error) {
	var sent atomic.Int64
	counted := *job
	counted.Program = countingProgram{inner: job.Program, sent: &sent}
	start := time.Now()
	eng := reference.NewFromGraph(&counted, g)
	steps, err := eng.Run(0)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o := &oracle{
		values:     make(map[uint64]string, len(eng.Vertices())),
		supersteps: steps,
		msgsSent:   sent.Load(),
		runTime:    time.Since(start),
	}
	for id, v := range eng.Vertices() {
		o.values[id] = pregel.ValueString(v.Value)
	}
	return o, nil
}

// dump is a job's output parsed: vid -> value column and vid -> whole
// line (what a point read must return byte for byte).
type dump struct {
	values map[uint64]string
	lines  map[uint64]string
}

func parseDump(data []byte) (*dump, error) {
	d := &dump{values: make(map[uint64]string), lines: make(map[uint64]string)}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, "\t", 3)
		if len(fields) < 2 {
			return nil, fmt.Errorf("dump line %q has no value column", line)
		}
		vid, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("dump line %q: %w", line, err)
		}
		d.values[vid] = fields[1]
		d.lines[vid] = line
	}
	return d, sc.Err()
}

// tolerance says how far a float value may sit from the oracle's.
type tolerance struct {
	exact bool
	abs   float64
	rel   float64
}

var (
	// tolExact: integer-valued algorithms (SSSP on unit weights) must be
	// byte-identical.
	tolExact = tolerance{exact: true}
	// tolPageRank: message combination order differs between the
	// dataflow and the oracle, so sums differ in the last ulps; this is
	// the relative tolerance of the repo's parity tests.
	tolPageRank = tolerance{rel: 1e-6}
	// tolDeltaPageRank: each run stops pushing residuals below epsilon
	// (1e-9 here) in its own order, so two converged runs agree to about
	// 1e4 x epsilon, the ratio the repo's delta tests use.
	tolDeltaPageRank = tolerance{abs: 1e-5, rel: 1e-4}
)

// compareValues returns nil when got matches want on every vertex.
func compareValues(got, want map[uint64]string, tol tolerance) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d vertices, oracle has %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			return fmt.Errorf("vertex %d missing", id)
		}
		if g == w {
			continue
		}
		if !tol.exact {
			gf, err1 := strconv.ParseFloat(g, 64)
			wf, err2 := strconv.ParseFloat(w, 64)
			if err1 == nil && err2 == nil {
				diff := math.Abs(gf - wf)
				if diff <= tol.abs+tol.rel*math.Max(math.Abs(gf), math.Abs(wf)) {
					continue
				}
			}
		}
		return fmt.Errorf("vertex %d: got %q, oracle %q", id, g, w)
	}
	return nil
}
