package algorithms

import (
	"sort"

	"pregelix/pregel"
)

// triangleCount counts triangles in an undirected graph (edges present
// in both directions). Superstep 1: each vertex sends its higher-id
// neighbor list to each higher-id neighbor. Superstep 2: each vertex
// intersects received lists with its own adjacency; every hit is a
// triangle counted exactly once (at its middle-id vertex's successor).
// The global triangle count is produced via the Aggregator.
type triangleCount struct{}

func (triangleCount) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	val := v.Value.(*pregel.Int64)
	switch ctx.Superstep() {
	case 1:
		*val = 0
		var higher pregel.VIDList
		for _, e := range v.Edges {
			if uint64(e.Dest) > uint64(v.ID) {
				higher = append(higher, uint64(e.Dest))
			}
		}
		sort.Slice(higher, func(i, j int) bool { return higher[i] < higher[j] })
		for _, dest := range higher {
			ctx.SendMessage(pregel.VertexID(dest), &higher)
		}
		v.VoteToHalt()
	case 2:
		neighbors := make(map[uint64]bool, len(v.Edges))
		for _, e := range v.Edges {
			neighbors[uint64(e.Dest)] = true
		}
		var count int64
		for _, m := range msgs {
			for _, cand := range *m.(*pregel.VIDList) {
				// Count each triangle (a<b<c) exactly once: at b, for
				// candidate c from a's gossip.
				if cand > uint64(v.ID) && neighbors[cand] {
					count++
				}
			}
		}
		*val = pregel.Int64(count)
		c := pregel.Int64(count)
		ctx.Aggregate(&c)
		v.VoteToHalt()
	}
	return nil
}

// SumInt64Aggregator sums Int64 contributions into the global state.
type SumInt64Aggregator struct{}

// Zero implements pregel.Aggregator.
func (SumInt64Aggregator) Zero() pregel.Value { return pregel.NewInt64() }

// Merge implements pregel.Aggregator.
func (SumInt64Aggregator) Merge(a, b pregel.Value) pregel.Value {
	*a.(*pregel.Int64) += *b.(*pregel.Int64)
	return a
}

// NewTriangleCountJob builds a triangle counting job; the final global
// aggregate (JobStats.FinalState.Aggregate, decodable as Int64) is the
// total triangle count.
func NewTriangleCountJob(name, input, output string) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: triangleCount{},
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewInt64,
			NewMessage:     pregel.NewVIDList,
		},
		Aggregator: SumInt64Aggregator{},
		Join:       pregel.FullOuterJoin,
		GroupBy:    pregel.SortGroupBy,
		Connector:  pregel.UnmergeConnector,
		InputPath:  input,
		OutputPath: output,
	}
}

// maximalCliques finds, per vertex, the size of the largest clique that
// contains the vertex within its ego network, a building block for
// maximal clique enumeration. Superstep 1 gossips adjacency to
// neighbors; superstep 2 runs a bounded Bron-Kerbosch on the ego
// network. The global aggregate reports the maximum clique size found.
type maximalCliques struct{}

func (maximalCliques) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	val := v.Value.(*pregel.Int64)
	switch ctx.Superstep() {
	case 1:
		*val = 1
		var adj pregel.VIDList
		adj = append(adj, uint64(v.ID))
		for _, e := range v.Edges {
			adj = append(adj, uint64(e.Dest))
		}
		for _, e := range v.Edges {
			ctx.SendMessage(e.Dest, &adj)
		}
		v.VoteToHalt()
	case 2:
		// Ego network: neighbors of v plus edges among them as gossiped.
		adjacency := map[uint64]map[uint64]bool{}
		mine := map[uint64]bool{}
		for _, e := range v.Edges {
			mine[uint64(e.Dest)] = true
		}
		for _, m := range msgs {
			list := *m.(*pregel.VIDList)
			if len(list) == 0 {
				continue
			}
			owner := list[0]
			if !mine[owner] {
				continue
			}
			set := map[uint64]bool{}
			for _, n := range list[1:] {
				if mine[n] || n == uint64(v.ID) {
					set[n] = true
				}
			}
			adjacency[owner] = set
		}
		best := 1 + maxCliqueSize(adjacency, mine)
		*val = pregel.Int64(best)
		b := pregel.Int64(best)
		ctx.Aggregate(&b)
		v.VoteToHalt()
	}
	return nil
}

// maxCliqueSize runs a small Bron-Kerbosch over the ego network (the
// clique found is extended by the ego vertex itself by the caller).
func maxCliqueSize(adj map[uint64]map[uint64]bool, candidates map[uint64]bool) int {
	var nodes []uint64
	for n := range candidates {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	best := 0
	var extend func(clique []uint64, cand []uint64)
	calls := 0
	extend = func(clique []uint64, cand []uint64) {
		calls++
		if calls > 200_000 { // bounded search keeps worst cases tame
			return
		}
		if len(clique) > best {
			best = len(clique)
		}
		for i, c := range cand {
			ok := true
			for _, m := range clique {
				if !(adj[m][c] || adj[c][m]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			extend(append(clique, c), cand[i+1:])
		}
	}
	extend(nil, nodes)
	return best
}

// MaxInt64Aggregator keeps the maximum Int64 contribution.
type MaxInt64Aggregator struct{}

// Zero implements pregel.Aggregator.
func (MaxInt64Aggregator) Zero() pregel.Value { return pregel.NewInt64() }

// Merge implements pregel.Aggregator.
func (MaxInt64Aggregator) Merge(a, b pregel.Value) pregel.Value {
	if *b.(*pregel.Int64) > *a.(*pregel.Int64) {
		return b
	}
	return a
}

// NewMaximalCliquesJob builds the maximal-clique-size job.
func NewMaximalCliquesJob(name, input, output string) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: maximalCliques{},
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewInt64,
			NewMessage:     pregel.NewVIDList,
		},
		Aggregator: MaxInt64Aggregator{},
		Join:       pregel.FullOuterJoin,
		GroupBy:    pregel.SortGroupBy,
		Connector:  pregel.UnmergeConnector,
		InputPath:  input,
		OutputPath: output,
	}
}
