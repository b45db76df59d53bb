// Package delta is the streaming-mutation subsystem: it turns a sealed
// (completed, retained) job into an incrementally refreshable one.
//
// Clients POST NDJSON mutation batches (addVertex / removeVertex /
// addEdge / removeEdge) against a finished job. Batches are journaled
// durably (Journal), routed to their owning partition with the same
// FNV-1a vertex partitioner the load path uses (PartitionOf), applied
// to a clone of the sealed partition B-trees through the job's
// Resolver, and the resulting *dirty set* of vertex ids seeds delta
// supersteps that re-activate only the affected vertices plus their
// message frontier — never a full recompute.
//
// The package holds the pieces shared by the single-process runtime and
// the distributed coordinator/worker pair: the mutation model, batch
// encoding, partition routing, and the journal. Graph application and
// superstep driving live in internal/core, which imports this package
// (never the reverse).
package delta

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Mutation op kinds, matching the pregel mutation API: AddVertex /
// RemoveVertex resolve through the job's Resolver; AddEdge / RemoveEdge
// edit the source vertex's outgoing edge list in place.
const (
	OpAddVertex    = "addVertex"
	OpRemoveVertex = "removeVertex"
	OpAddEdge      = "addEdge"
	OpRemoveEdge   = "removeEdge"
)

// Mutation is one NDJSON line of an ingest batch.
//
//	{"op":"addVertex","id":42,"value":1.0}
//	{"op":"removeVertex","id":42}
//	{"op":"addEdge","id":1,"dst":2,"value":0.5}
//	{"op":"removeEdge","id":1,"dst":2}
//
// Value is optional; for addVertex it initializes the vertex value when
// the job's vertex value is numeric (Double/Float/Int64), for addEdge
// the edge value likewise. Absent, new vertices get the codec's zero
// value — the same semantics as a vertex materialized by a dangling
// message.
type Mutation struct {
	Op    string   `json:"op"`
	ID    uint64   `json:"id"`
	Dst   uint64   `json:"dst,omitempty"`
	Value *float64 `json:"value,omitempty"`
}

// Validate checks the mutation is well-formed.
func (m *Mutation) Validate() error {
	switch m.Op {
	case OpAddVertex, OpRemoveVertex:
		if m.Dst != 0 {
			return fmt.Errorf("delta: %s does not take dst", m.Op)
		}
	case OpAddEdge, OpRemoveEdge:
		// Edge ops route by source id; dst names the edge head. A
		// self-loop (id == dst) is legal, so no dst!=id check.
	case "":
		return fmt.Errorf("delta: mutation missing op")
	default:
		return fmt.Errorf("delta: unknown op %q", m.Op)
	}
	return nil
}

// MaxBatchBytes bounds one ingest batch; larger requests are rejected
// before parsing so a runaway client cannot exhaust coordinator memory.
const MaxBatchBytes = 64 << 20

// ParseBatch reads an NDJSON mutation batch, validating every line.
// Blank lines are skipped. It returns an error naming the first bad
// line (1-based) so HTTP clients get an actionable 400.
func ParseBatch(r io.Reader) ([]Mutation, error) {
	sc := bufio.NewScanner(io.LimitReader(r, MaxBatchBytes+1))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	var (
		muts []Mutation
		line int
		n    int
	)
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		n += len(raw) + 1
		if len(raw) == 0 {
			continue
		}
		var m Mutation
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("delta: line %d: %v", line, err)
		}
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("delta: line %d: %v", line, err)
		}
		muts = append(muts, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("delta: reading batch: %v", err)
	}
	if n > MaxBatchBytes {
		return nil, fmt.Errorf("delta: batch exceeds %d bytes", MaxBatchBytes)
	}
	if len(muts) == 0 {
		return nil, fmt.Errorf("delta: empty mutation batch")
	}
	return muts, nil
}

// EncodeBatch serializes mutations back to NDJSON — the journal's
// on-disk format is exactly the wire format, so journaled batches can
// be replayed through ParseBatch.
func EncodeBatch(muts []Mutation) []byte {
	var buf []byte
	for i := range muts {
		b, _ := json.Marshal(&muts[i])
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	return buf
}

// PartitionOf returns the partition owning vid: FNV-1a over the
// big-endian id. It must stay bit-identical to the load partitioner,
// hyracks.HashPartitioner(0) over the 8-byte key; the query tier routes
// by it too.
func PartitionOf(vid uint64, numParts int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], vid)
	h := uint64(offset64)
	for _, b := range be {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(numParts))
}

// Route groups mutations by owning partition, preserving arrival order
// within each partition (the Resolver contract depends on it). Edge
// mutations route by their source vertex: the edge list lives in the
// source's record, and the destination joins the dirty frontier through
// messages, not through routing.
func Route(muts []Mutation, numParts int) map[int][]Mutation {
	out := make(map[int][]Mutation)
	for _, m := range muts {
		p := PartitionOf(m.ID, numParts)
		out[p] = append(out[p], m)
	}
	return out
}

// DirtyIDs returns the sorted, deduplicated set of vertex ids a
// mutation slice touches directly. This is the per-partition dirty set
// seed: delta supersteps activate exactly these vertices, and the
// frontier (message recipients) reactivates transitively.
func DirtyIDs(muts []Mutation) []uint64 {
	seen := make(map[uint64]struct{}, len(muts))
	for _, m := range muts {
		seen[m.ID] = struct{}{}
	}
	out := make([]uint64, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
