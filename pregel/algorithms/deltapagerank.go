package algorithms

import (
	"fmt"
	"math"
	"strconv"

	"pregelix/pregel"
)

// DeltaPageRankEpsilonKey configures the residual threshold below which
// a rank increment is not propagated (default 1e-9).
const DeltaPageRankEpsilonKey = "deltapagerank.epsilon"

// deltaPageRank is the push/residual formulation of PageRank: instead of
// recomputing every rank from scratch each round (the pull formulation
// of pageRank), each vertex accumulates received mass into its value and
// pushes only the CHANGE in its per-edge contribution since the last
// push. The cumulative mass pushed down each edge is kept as the edge's
// value, so the fixed point satisfies
//
//	rank(v) = 0.15/N + sum over in-edges u->v of 0.85*rank(u)/deg(u)
//
// — exact PageRank, reached when every residual falls below epsilon.
//
// Because all state needed to resume is in the vertex and edge values,
// the fixed point can be refreshed incrementally: after edge additions,
// re-running only the mutated vertices (the delta subsystem's dirty
// frontier) re-converges to the exact ranks of the new graph — a new
// edge starts with zero pushed mass and the source's changed out-degree
// shifts every residual, so corrections ripple outward exactly as far
// as they matter. Edge removals and vertex churn change N or strand
// already-pushed mass and need a from-scratch run.
//
// Inputs must be unweighted adjacency lines: the edge value slot is
// owned by the algorithm (cumulative pushed mass), not the input.
type deltaPageRank struct{}

func (deltaPageRank) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	eps := 1e-9
	if s := ctx.Config(DeltaPageRankEpsilonKey); s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fmt.Errorf("algorithms: bad %s: %w", DeltaPageRankEpsilonKey, err)
		}
		eps = f
	}
	val := v.Value.(*pregel.Double)
	if ctx.Superstep() == 1 {
		// Seed the teleport mass exactly once; delta refreshes start past
		// superstep 1 and inherit the sealed run's accumulated values.
		*val += pregel.Double(0.15 / float64(ctx.NumVertices()))
	}
	for _, m := range msgs {
		*val += *m.(*pregel.Double)
	}
	if len(v.Edges) > 0 {
		target := 0.85 * float64(*val) / float64(len(v.Edges))
		for i := range v.Edges {
			// The edge value slot is algorithm state; anything else there
			// (nil on a fresh edge, an input weight) counts as nothing sent.
			sent := 0.0
			if d, ok := v.Edges[i].Value.(*pregel.Double); ok {
				sent = float64(*d)
			}
			inc := target - sent
			if math.Abs(inc) > eps {
				m := pregel.Double(inc)
				ctx.SendMessage(v.Edges[i].Dest, &m)
				if d, ok := v.Edges[i].Value.(*pregel.Double); ok {
					*d = pregel.Double(target)
				} else {
					d := pregel.Double(target)
					v.Edges[i].Value = &d
				}
			}
		}
	}
	v.VoteToHalt()
	return nil
}

// NewDeltaPageRankJob builds a residual PageRank job that runs to a
// fixed point (message-driven, so it converges rather than iterating a
// fixed count) and can be incrementally refreshed after edge additions
// via the delta-superstep subsystem. epsilon <= 0 selects the default.
func NewDeltaPageRankJob(name, input, output string, epsilon float64) *pregel.Job {
	if epsilon <= 0 {
		epsilon = 1e-9
	}
	return &pregel.Job{
		Name:    name,
		Program: deltaPageRank{},
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewDouble,
			NewEdgeValue:   pregel.NewDouble,
			NewMessage:     pregel.NewDouble,
		},
		Combiner: SumCombiner(),
		// Residual propagation sparsifies as it converges; let the planner
		// flip to the left-outer-join plan when messages thin out.
		Join:          pregel.AutoJoin,
		GroupBy:       pregel.HashSortGroupBy,
		Connector:     pregel.UnmergeConnector,
		Storage:       pregel.BTreeStorage,
		InputPath:     input,
		OutputPath:    output,
		MaxSupersteps: 500, // backstop; convergence halts far earlier
		Config: map[string]string{
			DeltaPageRankEpsilonKey: strconv.FormatFloat(epsilon, 'g', -1, 64),
		},
	}
}
