package algorithms

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"pregelix/pregel"
)

// Path merging is the core graph-cleaning step of the Genomix genome
// assembler built on Pregelix (Section 6): single paths in a De Bruijn
// graph are iteratively merged into their predecessor vertices until
// every mergeable chain is collapsed. It exercises Pregelix's vertex
// addition/removal support heavily; the paper recommends LSM vertex
// storage for it, but here it runs on the B-tree like every job, which
// measured faster on every rung (ARCHITECTURE.md, "Section 5.2: one
// vertex store").
//
// The algorithm proceeds in rounds of three supersteps:
//
//	phase 0: every vertex with out-degree 1 whose round-salted coin is
//	         HEAD pings its unique successor.
//	phase 1: a vertex whose coin is TAIL and that received exactly one
//	         ping replies with its content (sequence + out-edges) and
//	         removes itself (RemoveVertex).
//	phase 2: the head appends the tail's sequence, adopts its edges.
//
// The head/tail coin is re-salted per round, so any adjacent pair
// eventually draws (HEAD, TAIL) and merges; the coin also guarantees no
// vertex is simultaneously head and tail in one round, which would lose
// data. Rounds are bounded by MaxSupersteps (or run one round per
// pipelined job, as the genome example does).

// PathMergeRoundsKey configures the number of 3-superstep rounds for a
// standalone path-merge job.
const PathMergeRoundsKey = "pathmerge.rounds"

// PathMergeSeedKey salts the head/tail coin.
const PathMergeSeedKey = "pathmerge.seed"

type pathMerge struct{}

// Message encoding: kind byte then payload.
const (
	pmPing    = 1 // payload: u64 sender id
	pmContent = 2 // payload: u32 seqLen, seq, u32 edgeCount, u64 dests...
)

func pingMsg(from pregel.VertexID) *pregel.Bytes {
	b := make(pregel.Bytes, 9)
	b[0] = pmPing
	binary.LittleEndian.PutUint64(b[1:], uint64(from))
	return &b
}

func contentMsg(seq []byte, edges []pregel.Edge) *pregel.Bytes {
	b := make(pregel.Bytes, 0, 9+len(seq)+8*len(edges))
	b = append(b, pmContent)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(seq)))
	b = append(b, tmp[:4]...)
	b = append(b, seq...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(edges)))
	b = append(b, tmp[:4]...)
	for _, e := range edges {
		binary.LittleEndian.PutUint64(tmp[:], uint64(e.Dest))
		b = append(b, tmp[:]...)
	}
	return &b
}

func (pathMerge) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	seed := uint64(7)
	if s := ctx.Config(PathMergeSeedKey); s != "" {
		seed, _ = strconv.ParseUint(s, 10, 64)
	}
	phase := (ctx.Superstep() - 1) % 3
	round := uint64((ctx.Superstep() - 1) / 3)
	headCoin := func(id pregel.VertexID) bool {
		return mix(seed^round, uint64(id))&1 == 0
	}
	val := v.Value.(*pregel.Bytes)

	switch phase {
	case 0:
		if len(v.Edges) == 1 && headCoin(v.ID) {
			ctx.SendMessage(v.Edges[0].Dest, pingMsg(v.ID))
		}
	case 1:
		var pings []pregel.VertexID
		for _, m := range msgs {
			b := *m.(*pregel.Bytes)
			if len(b) == 9 && b[0] == pmPing {
				pings = append(pings, pregel.VertexID(binary.LittleEndian.Uint64(b[1:])))
			}
		}
		if len(pings) == 1 && !headCoin(v.ID) {
			ctx.SendMessage(pings[0], contentMsg(*val, v.Edges))
			ctx.RemoveVertex(v.ID)
		}
	case 2:
		for _, m := range msgs {
			b := *m.(*pregel.Bytes)
			if len(b) == 0 || b[0] != pmContent {
				continue
			}
			off := 1
			seqLen := int(binary.LittleEndian.Uint32(b[off:]))
			off += 4
			if off+seqLen > len(b) {
				return fmt.Errorf("algorithms: corrupt path-merge content")
			}
			*val = append(*val, b[off:off+seqLen]...)
			off += seqLen
			ec := int(binary.LittleEndian.Uint32(b[off:]))
			off += 4
			v.Edges = v.Edges[:0]
			for i := 0; i < ec; i++ {
				dest := pregel.VertexID(binary.LittleEndian.Uint64(b[off:]))
				off += 8
				v.Edges = append(v.Edges, pregel.Edge{Dest: dest})
			}
		}
	}

	// Stay awake until the round budget is exhausted; the job's
	// MaxSupersteps (or the per-round pipeline) bounds execution.
	rounds := int64(10)
	if s := ctx.Config(PathMergeRoundsKey); s != "" {
		rounds, _ = strconv.ParseInt(s, 10, 64)
	}
	if ctx.Superstep() >= rounds*3 {
		v.VoteToHalt()
	}
	return nil
}

// NewPathMergeJob builds a standalone path-merging job running the given
// number of 3-superstep rounds.
func NewPathMergeJob(name, input, output string, rounds int) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: pathMerge{},
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewBytes,
			NewMessage:     pregel.NewBytes,
		},
		Join:          pregel.FullOuterJoin,
		GroupBy:       pregel.SortGroupBy,
		Connector:     pregel.UnmergeConnector,
		InputPath:     input,
		OutputPath:    output,
		MaxSupersteps: rounds * 3,
		Config: map[string]string{
			PathMergeRoundsKey: strconv.Itoa(rounds),
		},
	}
}

// NewPathMergeRoundJob builds a single-round (3 supersteps) path-merge
// job for use in a pipelined job array (Section 5.6), one job per
// cleaning round as Genomix chains its algorithms.
func NewPathMergeRoundJob(name, input, output string, round int) *pregel.Job {
	j := NewPathMergeJob(name, input, output, 1)
	j.MaxSupersteps = 3
	j.Config[PathMergeSeedKey] = strconv.Itoa(7 + round) // re-salt per round
	return j
}
