// Package algorithms is the Pregelix built-in graph algorithm library
// (Section 6 of the paper): PageRank, single source shortest paths,
// connected components, reachability, triangle counting, maximal
// cliques, random-walk graph sampling, BFS spanning tree, and the
// De-Bruijn-style path merging of the Genomix use case.
//
// Each constructor returns a configured pregel.Job with the plan hints
// the paper recommends for that workload; callers may override the
// hints to explore the other physical plans.
package algorithms

import (
	"fmt"
	"math"
	"strconv"

	"pregelix/pregel"
)

// PageRankIterationsKey configures the iteration count (default 10).
const PageRankIterationsKey = "pagerank.iterations"

// pageRank is the classic message-intensive ranking computation
// (Section 7's Webmap workload). Every vertex is live in every
// superstep, which is why the paper's default full-outer-join +
// B-tree plan fits it best.
type pageRank struct{}

func (pageRank) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	iterations := int64(10)
	if s := ctx.Config(PageRankIterationsKey); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("algorithms: bad %s: %w", PageRankIterationsKey, err)
		}
		iterations = n
	}
	val := v.Value.(*pregel.Double)
	n := float64(ctx.NumVertices())
	if ctx.Superstep() == 1 {
		*val = pregel.Double(1.0 / n)
	} else {
		var sum float64
		for _, m := range msgs {
			sum += float64(*m.(*pregel.Double))
		}
		*val = pregel.Double(0.15/n + 0.85*sum)
	}
	if ctx.Superstep() < iterations {
		if len(v.Edges) > 0 {
			share := pregel.Double(float64(*val) / float64(len(v.Edges)))
			for _, e := range v.Edges {
				ctx.SendMessage(e.Dest, &share)
			}
		}
	} else {
		v.VoteToHalt()
	}
	return nil
}

// SumCombiner adds Double messages, the PageRank combiner.
func SumCombiner() pregel.Combiner { return sumCombiner{} }

type sumCombiner struct{}

func (sumCombiner) Combine(a, b pregel.Value) pregel.Value {
	*a.(*pregel.Double) += *b.(*pregel.Double)
	return a
}

// WordFold adds two Doubles as the engine's message group-bys hold them: a
// message's Marshal bytes read as a little-endian word, which for a
// Double is its IEEE 754 bits.
func (sumCombiner) WordFold(msg pregel.Value) func(acc, in uint64) uint64 {
	if _, ok := msg.(*pregel.Double); !ok {
		return nil
	}
	return func(acc, in uint64) uint64 {
		return math.Float64bits(math.Float64frombits(acc) + math.Float64frombits(in))
	}
}

// NewPageRankJob builds a PageRank job with the paper's default plan
// (index full outer join, unmerged connector, B-tree) and, because the
// sum of two ranks is as long as one, the HashSort group-by: a sender
// holds one accumulator per destination and folds each message into it.
func NewPageRankJob(name, input, output string, iterations int) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: pageRank{},
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewDouble,
			NewMessage:     pregel.NewDouble,
		},
		Combiner:   SumCombiner(),
		Join:       pregel.FullOuterJoin,
		GroupBy:    pregel.HashSortGroupBy,
		Connector:  pregel.UnmergeConnector,
		InputPath:  input,
		OutputPath: output,
		Config: map[string]string{
			PageRankIterationsKey: strconv.Itoa(iterations),
		},
	}
}
