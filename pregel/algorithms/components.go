package algorithms

import (
	"strconv"

	"pregelix/pregel"
)

// connectedComponents propagates the minimum vertex id through the graph
// (label propagation); at convergence every vertex's value is its
// component's smallest vid. The input is treated as undirected, i.e.
// edges are expected in both directions (the BTC datasets of Section 7
// are undirected).
type connectedComponents struct{}

func (connectedComponents) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	val := v.Value.(*pregel.Int64)
	if ctx.Superstep() == 1 {
		*val = pregel.Int64(v.ID)
		for _, e := range v.Edges {
			if e.Dest < v.ID {
				m := pregel.Int64(e.Dest)
				*val = m
			}
		}
		out := *val
		for _, e := range v.Edges {
			ctx.SendMessage(e.Dest, &out)
		}
		v.VoteToHalt()
		return nil
	}
	changed := false
	for _, m := range msgs {
		if c := *m.(*pregel.Int64); c < *val {
			*val = c
			changed = true
		}
	}
	if changed {
		out := *val
		for _, e := range v.Edges {
			ctx.SendMessage(e.Dest, &out)
		}
	}
	v.VoteToHalt()
	return nil
}

// MinInt64Combiner keeps the minimum Int64 message.
func MinInt64Combiner() pregel.Combiner { return minInt64Combiner{} }

type minInt64Combiner struct{}

func (minInt64Combiner) Combine(a, b pregel.Value) pregel.Value {
	if *b.(*pregel.Int64) < *a.(*pregel.Int64) {
		return b
	}
	return a
}

// WordFold keeps the smaller of two Int64s held as words (SumCombiner's
// WordFold says how), which are their two's-complement bits.
func (minInt64Combiner) WordFold(msg pregel.Value) func(acc, in uint64) uint64 {
	if _, ok := msg.(*pregel.Int64); !ok {
		return nil
	}
	return func(acc, in uint64) uint64 {
		if int64(in) < int64(acc) {
			return in
		}
		return acc
	}
}

// NewConnectedComponentsJob builds a CC job. CC starts message-intensive
// and sparsifies near convergence, so the default full-outer-join plan
// and the left-outer-join plan perform similarly (Figure 14c).
func NewConnectedComponentsJob(name, input, output string) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: connectedComponents{},
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewInt64,
			NewMessage:     pregel.NewInt64,
		},
		Combiner:   MinInt64Combiner(),
		Join:       pregel.FullOuterJoin,
		GroupBy:    pregel.HashSortGroupBy,
		Connector:  pregel.UnmergeConnector,
		InputPath:  input,
		OutputPath: output,
	}
}

// reachability marks every vertex reachable from the source with true.
type reachability struct{}

func (reachability) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	sourceID := uint64(1)
	if s := ctx.Config(SourceIDKey); s != "" {
		if n, err := strconv.ParseUint(s, 10, 64); err == nil {
			sourceID = n
		}
	}
	val := v.Value.(*pregel.Bool)
	reached := bool(*val)
	if ctx.Superstep() == 1 {
		reached = uint64(v.ID) == sourceID
	} else if len(msgs) > 0 {
		reached = true
	}
	if reached && !bool(*val) {
		*val = pregel.Bool(true)
		t := pregel.Bool(true)
		for _, e := range v.Edges {
			ctx.SendMessage(e.Dest, &t)
		}
	}
	v.VoteToHalt()
	return nil
}

// FirstCombiner keeps an arbitrary single message; used when any one
// message carries all the information (reachability, BFS parent).
func FirstCombiner() pregel.Combiner { return firstCombiner{} }

type firstCombiner struct{}

func (firstCombiner) Combine(a, b pregel.Value) pregel.Value { return a }

// WordFold keeps the accumulator of an Int64 or a Bool held as a word
// (SumCombiner's WordFold says how). A Bool's is its Marshal byte: any
// byte but 0 decodes as true, which marshals as 1.
func (firstCombiner) WordFold(msg pregel.Value) func(acc, in uint64) uint64 {
	switch msg.(type) {
	case *pregel.Int64:
		return func(acc, _ uint64) uint64 { return acc }
	case *pregel.Bool:
		return func(acc, _ uint64) uint64 { return min(acc, 1) }
	}
	return nil
}

// NewReachabilityJob builds a reachability query job from the given
// source vertex (message-sparse: left outer join).
func NewReachabilityJob(name, input, output string, sourceID uint64) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: reachability{},
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewBool,
			NewMessage:     pregel.NewBool,
		},
		Combiner:   FirstCombiner(),
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

// bfsTree computes a BFS spanning tree: each vertex's value becomes its
// parent's id (the source points at itself; unreached vertices keep -1).
// This is one of the graph-connectivity building blocks of the Hong
// Kong research group's use case (Section 6).
type bfsTree struct{}

func (bfsTree) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	sourceID := uint64(1)
	if s := ctx.Config(SourceIDKey); s != "" {
		if n, err := strconv.ParseUint(s, 10, 64); err == nil {
			sourceID = n
		}
	}
	val := v.Value.(*pregel.Int64)
	if ctx.Superstep() == 1 {
		*val = -1
		if uint64(v.ID) == sourceID {
			*val = pregel.Int64(v.ID)
			me := pregel.Int64(v.ID)
			for _, e := range v.Edges {
				ctx.SendMessage(e.Dest, &me)
			}
		}
		v.VoteToHalt()
		return nil
	}
	if *val == -1 && len(msgs) > 0 {
		*val = *msgs[0].(*pregel.Int64) // first parent wins
		me := pregel.Int64(v.ID)
		for _, e := range v.Edges {
			ctx.SendMessage(e.Dest, &me)
		}
	}
	v.VoteToHalt()
	return nil
}

// NewBFSTreeJob builds a BFS spanning tree job.
func NewBFSTreeJob(name, input, output string, sourceID uint64) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: bfsTree{},
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewInt64,
			NewMessage:     pregel.NewInt64,
		},
		Combiner:   FirstCombiner(),
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
