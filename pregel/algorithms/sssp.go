package algorithms

import (
	"math"
	"strconv"

	"pregelix/pregel"
)

// SourceIDKey configures the source vertex for SSSP/reachability/BFS
// (the paper's "pregelix.sssp.sourceId").
const SourceIDKey = "pregelix.sssp.sourceId"

// shortestPaths is the message-sparse single source shortest paths
// program of Figure 9: only vertices whose distance improved send
// messages, so after the frontier passes most vertices are halted —
// exactly the workload the left-outer-join plan accelerates (up to 15x
// over Giraph in Figure 15).
type shortestPaths struct{}

func (shortestPaths) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	sourceID := uint64(1)
	if s := ctx.Config(SourceIDKey); s != "" {
		if n, err := strconv.ParseUint(s, 10, 64); err == nil {
			sourceID = n
		}
	}
	val := v.Value.(*pregel.Double)
	if ctx.Superstep() == 1 {
		*val = pregel.Double(math.MaxFloat64)
	}
	minDist := math.MaxFloat64
	if uint64(v.ID) == sourceID {
		minDist = 0
	}
	for _, m := range msgs {
		if d := float64(*m.(*pregel.Double)); d < minDist {
			minDist = d
		}
	}
	if minDist < float64(*val) {
		*val = pregel.Double(minDist)
		for _, e := range v.Edges {
			w := 1.0
			if f, ok := e.Value.(*pregel.Float); ok && f != nil {
				w = float64(*f)
			}
			out := pregel.Double(minDist + w)
			ctx.SendMessage(e.Dest, &out)
		}
	}
	v.VoteToHalt()
	return nil
}

// MinDoubleCombiner keeps the minimum Double message (the
// DoubleMinCombiner of Figure 9).
func MinDoubleCombiner() pregel.Combiner { return minDoubleCombiner{} }

type minDoubleCombiner struct{}

func (minDoubleCombiner) Combine(a, b pregel.Value) pregel.Value {
	if *b.(*pregel.Double) < *a.(*pregel.Double) {
		return b
	}
	return a
}

// WordFold keeps the smaller of two Doubles held as words (SumCombiner's
// WordFold says how), the accumulator unless the other is less.
func (minDoubleCombiner) WordFold(msg pregel.Value) func(acc, in uint64) uint64 {
	if _, ok := msg.(*pregel.Double); !ok {
		return nil
	}
	return func(acc, in uint64) uint64 {
		if math.Float64frombits(in) < math.Float64frombits(acc) {
			return in
		}
		return acc
	}
}

// NewSSSPJob builds a single source shortest paths job with the plan
// hints of Figure 9's main function: left outer join, HashSort group-by,
// unmerged connector.
func NewSSSPJob(name, input, output string, sourceID uint64) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: shortestPaths{},
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewDouble,
			NewEdgeValue:   pregel.NewFloat,
			NewMessage:     pregel.NewDouble,
		},
		Combiner:   MinDoubleCombiner(),
		Join:       pregel.LeftOuterJoin,
		GroupBy:    pregel.HashSortGroupBy,
		Connector:  pregel.UnmergeConnector,
		InputPath:  input,
		OutputPath: output,
		Config: map[string]string{
			SourceIDKey: strconv.FormatUint(sourceID, 10),
		},
	}
}
