package core

// Hot-partition splitting. The base topology (node IDs nc1..ncN,
// partition i on node i%N) is fixed at assembly, so the rebalancer can
// only move whole partitions between processes — one skewed partition
// pins a node forever. A split re-hashes one hot partition's vertices
// into M fresh child partitions appended past the current partition
// table (children land on node (first+k)%N, the same round-robin every
// runState computes), turning intra-partition skew into inter-node
// parallelism without touching any other partition.
//
// Routing becomes a two-level hash: the base FNV hash picks partition
// p, and while p appears as a split parent the vid re-hashes (with the
// parent index folded into the seed, so chained splits stay
// independent) into one of the children. The split map is broadcast
// with every superstep verb and versioned like the recovery epoch — a
// split bumps the attempt counter, so in-flight wire streams of the
// pre-split table can never be claimed by the post-split supersteps.
//
// The migration itself reuses the checkpoint/migration image format:
// the parent is snapshotted with partition.send, the coordinator
// re-hashes its frame streams into per-child images (plus an empty
// image that evacuates the parent), and partition.recv installs them
// through the same reload path a checkpoint restore uses. Committed
// splits are journaled in the next checkpoint manifest, so recovery and
// a durable-coordinator restart both reconstruct the split table.

import (
	"bytes"
	"fmt"

	"pregelix/internal/delta"
	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// splitRec records one committed hot-partition split: parent partition
// Parent re-hashed into Children child partitions starting at table
// index First. Split lists are append-only; a later record may name an
// earlier record's child as its parent (chained splits).
type splitRec struct {
	Parent   int `json:"parent"`
	First    int `json:"first"`
	Children int `json:"children"`
}

// totalParts returns the partition-table size implied by a split list:
// the base table plus every appended child range.
func totalParts(base int, splits []splitRec) int {
	total := base
	for _, s := range splits {
		if end := s.First + s.Children; end > total {
			total = end
		}
	}
	return total
}

// splitHash re-hashes a vid for child selection within one split. The
// parent index is folded into the seed so the child choice is
// independent of any earlier split level. This must NOT be another FNV
// pass: FNV's low bits are affine in the input bits mod 2^k (bit 0 of
// the hash is the seed's bit 0 XORed with the bytes' low bits), and
// every vid of the parent already satisfies baseFNV % base == parent —
// for a power-of-two child count the same linear combinations are
// pinned and the children degenerate to one or two buckets. A
// splitmix64-style finalizer avalanches every input bit into every
// output bit, so the child choice decorrelates from the base hash.
func splitHash(vid uint64, parent int) uint64 {
	x := vid + 0x9e3779b97f4a7c15*uint64(parent+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// routeVertex routes a vid through the base hash and then through every
// split level it lands on. Child indexes are always greater than their
// parent's (First is the table size at split time), so the walk
// terminates. With an empty split list this is exactly
// delta.PartitionOf.
func routeVertex(vid uint64, baseParts int, splits []splitRec) int {
	p := delta.PartitionOf(vid, baseParts)
	for redirected := true; redirected; {
		redirected = false
		for _, s := range splits {
			if s.Parent == p {
				p = s.First + int(splitHash(vid, s.Parent)%uint64(s.Children))
				redirected = true
				break
			}
		}
	}
	return p
}

// partTable is a finished or checkpointed run's partition table, as
// sealed results and their reports carry it: NumParts partitions grown
// from BaseParts by Splits. BaseParts is zero on an unsplit table, which
// is then its own base.
type partTable struct {
	NumParts  int        `json:"numParts,omitempty"`
	BaseParts int        `json:"baseParts,omitempty"`
	Splits    []splitRec `json:"splits,omitempty"`
}

func (t partTable) base() int {
	if t.BaseParts > 0 {
		return t.BaseParts
	}
	return t.NumParts
}

// routeVid routes a vid through the table's routing function.
func (t partTable) routeVid(vid uint64) int { return routeVertex(vid, t.base(), t.Splits) }

// merge folds in one worker's report of the same sealed table.
func (t *partTable) merge(o partTable) {
	t.NumParts = max(t.NumParts, o.NumParts)
	if o.BaseParts > 0 {
		t.BaseParts = o.BaseParts
	}
	if len(o.Splits) > len(t.Splits) {
		t.Splits = o.Splits
	}
}

// vidPartitioner returns the connector partitioner for vid-routed
// superstep flows: the plain field-0 FNV hash while no split exists
// (bit-identical to the historical plan), else the two-level split
// router. The modulus argument is ignored under splits — the partition
// table's size already equals the routing range.
func (rs *runState) vidPartitioner() hyracks.Partitioner {
	if len(rs.splits) == 0 {
		return hyracks.HashPartitioner(0)
	}
	base, splits := rs.baseParts, rs.splits
	return func(r tuple.TupleRef, n int) int {
		return routeVertex(tuple.DecodeUint64(r.Field(0)), base, splits)
	}
}

// applySplits installs a longer split list: the list is adopted and the
// partition table grows to cover every child range, with the same
// deterministic node placement (partition i on live node i%N) every
// cluster participant computes.
func (rs *runState) applySplits(splits []splitRec) {
	rs.splits = append([]splitRec(nil), splits...)
	total := totalParts(rs.baseParts, rs.splits)
	live := rs.rt.Cluster.LiveNodes()
	for i := len(rs.parts); i < total; i++ {
		rs.parts = append(rs.parts, &partitionState{idx: i, node: live[i%len(live)]})
	}
}

// adoptSplits reconciles the session's split table with the
// controller's authoritative list, carried on every superstep /
// partition-transfer verb. Growing installs fresh (empty) child
// partitions; shrinking — the controller abandoned an uncommitted split
// — drops the orphaned children and their state. Either way the
// superstep plan, compiled for the old table, is closed.
func (rs *runState) adoptSplits(splits []splitRec) {
	if len(splits) == len(rs.splits) {
		return
	}
	rs.closePlan()
	if len(splits) < len(rs.splits) {
		total := totalParts(rs.baseParts, splits)
		for _, ps := range rs.parts[total:] {
			rs.dropOnePartition(ps)
		}
		rs.parts = rs.parts[:total]
		rs.splits = append([]splitRec(nil), splits...)
		return
	}
	rs.applySplits(splits)
}

// rehashPartitionImage re-hashes one parent partition's snapshot image
// into per-child images plus an empty image that evacuates the parent,
// by partition. Both frame streams are consumed in order and every tuple appended in
// encounter order, so each child's vertex stream stays vid-sorted (the
// reload path bulk-loads it) and its message stream stays grouped. The
// per-child statistics are recounted from the records themselves.
func rehashPartitionImage(pd *ckptPartData, rec splitRec, mode tuple.CompressMode) (map[int]*ckptPartData, error) {
	type child struct {
		vbuf, mbuf  bytes.Buffer
		vertex, msg *imageWriter
		stat        partStat
	}
	children := make([]*child, rec.Children)
	for i := range children {
		c := &child{}
		c.vertex, c.msg = newImageWriter(&c.vbuf, mode), newImageWriter(&c.mbuf, mode)
		defer c.vertex.release()
		defer c.msg.release()
		children[i] = c
	}
	// route hands every record of one stream to the child its vid hashes to.
	route := func(stream []byte, add func(c *child, k, v []byte) error) error {
		return eachImageFrame(bytes.NewReader(stream), func(fr *tuple.Frame) error {
			for i := 0; i < fr.Len(); i++ {
				t := fr.Tuple(i)
				k := t.Field(0)
				c := children[splitHash(tuple.DecodeUint64(k), rec.Parent)%uint64(rec.Children)]
				if err := add(c, k, t.Field(1)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := route(pd.Vertex, func(c *child, k, v []byte) error {
		c.stat.addVertex(v)
		return c.vertex.add(k, v)
	}); err != nil {
		return nil, fmt.Errorf("vertex stream: %w", err)
	}
	if err := route(pd.Msg, func(c *child, k, v []byte) error {
		c.stat.Msgs++
		return c.msg.add(k, v)
	}); err != nil {
		return nil, fmt.Errorf("msg stream: %w", err)
	}

	// The evacuated parent: an empty image with zeroed counters, so
	// partition.recv resets it through the same reload path.
	out := map[int]*ckptPartData{rec.Parent: {Part: rec.Parent}}
	for i, c := range children {
		if err := c.vertex.flush(); err != nil {
			return nil, err
		}
		if err := c.msg.flush(); err != nil {
			return nil, err
		}
		out[rec.First+i] = &ckptPartData{Part: rec.First + i, Vertex: c.vbuf.Bytes(), Msg: c.mbuf.Bytes(), Stats: c.stat}
	}
	return out, nil
}
