package algorithms

import (
	"strconv"

	"pregelix/pregel"
)

// Random-walk graph sampling (the paper used exactly this, built on
// Pregelix, to create the scaled-down Webmap samples of Table 3).
// A configurable number of walkers start at seed vertices and take a
// fixed number of steps; visited vertices are marked. Randomness is
// a deterministic hash of (walker, superstep, vertex) so runs are
// reproducible.

// Config keys for the random walk sampler.
const (
	SampleWalkersKey = "sample.walkers" // number of walkers (default 16)
	SampleStepsKey   = "sample.steps"   // steps per walker (default 8)
	SampleSeedKey    = "sample.seed"    // hash seed (default 1)
)

type randomWalkSample struct{}

func (randomWalkSample) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	walkers := int64(16)
	steps := int64(8)
	seed := uint64(1)
	if s := ctx.Config(SampleWalkersKey); s != "" {
		walkers, _ = strconv.ParseInt(s, 10, 64)
	}
	if s := ctx.Config(SampleStepsKey); s != "" {
		steps, _ = strconv.ParseInt(s, 10, 64)
	}
	if s := ctx.Config(SampleSeedKey); s != "" {
		seed, _ = strconv.ParseUint(s, 10, 64)
	}
	val := v.Value.(*pregel.Bool)

	if ctx.Superstep() == 1 {
		*val = false
		// Seed walkers on the vertices whose hash lands in [0, walkers).
		if int64(mix(seed, uint64(v.ID))%uint64(maxI64(ctx.NumVertices(), 1))) < walkers {
			*val = true
			forwardWalker(ctx, v, seed)
		}
		v.VoteToHalt()
		return nil
	}
	if ctx.Superstep() > steps {
		v.VoteToHalt()
		return nil
	}
	if len(msgs) > 0 {
		*val = true
		forwardWalker(ctx, v, seed)
	}
	v.VoteToHalt()
	return nil
}

func forwardWalker(ctx pregel.Context, v *pregel.Vertex, seed uint64) {
	if len(v.Edges) == 0 {
		return
	}
	pick := mix(seed^uint64(ctx.Superstep()), uint64(v.ID)) % uint64(len(v.Edges))
	t := pregel.Bool(true)
	ctx.SendMessage(v.Edges[pick].Dest, &t)
}

// mix is a 64-bit finalizer-style hash for deterministic pseudo-random
// decisions inside compute UDFs.
func mix(a, b uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 ^ b
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// NewRandomWalkSampleJob builds a graph sampling job; output vertices
// with value true form the sampled subgraph.
func NewRandomWalkSampleJob(name, input, output string, walkers, steps int) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: randomWalkSample{},
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
			SampleWalkersKey: strconv.Itoa(walkers),
			SampleStepsKey:   strconv.Itoa(steps),
		},
	}
}
