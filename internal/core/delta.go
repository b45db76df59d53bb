package core

// The delta-refresh engine: the pieces shared by the single-process
// runtime (Runtime.DeltaRefresh) and the distributed worker's
// delta.ingest / delta.run handlers. A delta session is an ordinary job
// session whose partitions are cloned from a *sealed* result version
// instead of loaded from input: journaled mutations are applied to the
// clones through the job's Resolver, the touched vertex ids accumulate
// into a per-partition dirty set, and arming the session clears the
// halt flag on exactly those records (seeding the live-vertex index
// when the plan needs one) so the first delta superstep — which runs as
// ss=2, past both of the engine's superstep-1 full-activation gates —
// computes only dirty vertices plus the message frontier.
//
// The sealed original keeps serving queries throughout: clones are
// rebuilt from a frame-stream snapshot of the retained index (the same
// image format checkpoints and migrations use), never by mutating it.

import (
	"context"
	"fmt"
	"sort"

	"pregelix/internal/delta"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel"
)

// deltaDirty maps each hosted partition of a delta session to the
// mutation-touched vertex ids still present after application.
type deltaDirty map[int]map[uint64]struct{}

// total counts the dirty vertices over all partitions.
func (d deltaDirty) total() (n int64) {
	for _, ids := range d {
		n += int64(len(ids))
	}
	return n
}

// ingestDelta builds the hosted partitions of a delta session: each is
// cloned from the sealed source — from a shipped image where one came
// with the verb (the cluster's topology moved since the seal), else from
// the sealed index held here, imaged in place (no wire hop, so no
// compression) — and its routed mutations are applied in journal order.
// The caller keeps src acquired. The dirty sets go to armDelta.
func (rs *runState) ingestDelta(ctx context.Context, src *retainedResult, shipped []ckptPartData, muts map[int][]delta.Mutation) (deltaDirty, error) {
	rs.initParts()
	if src != nil && len(rs.parts) != src.numParts {
		return nil, fmt.Errorf("cluster has %d partitions, sealed result has %d", len(rs.parts), src.numParts)
	}
	byPart := make(map[int]*ckptPartData, len(shipped))
	for i := range shipped {
		byPart[shipped[i].Part] = &shipped[i]
	}
	dirty := make(deltaDirty)
	for _, ps := range rs.ownedParts() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pd := byPart[ps.idx]
		if pd == nil {
			var idx storage.Index
			if src != nil {
				idx = src.parts[ps.idx]
			}
			if idx == nil {
				return nil, fmt.Errorf("partition %d neither shipped nor sealed here", ps.idx)
			}
			img, err := imageIndex(idx, ps.idx, tuple.CompressOff)
			if err != nil {
				return nil, fmt.Errorf("imaging sealed partition %d: %w", ps.idx, err)
			}
			pd = &img
		}
		if err := rs.installImage(ps, pd); err != nil {
			return nil, fmt.Errorf("cloning partition %d: %w", ps.idx, err)
		}
		dirty[ps.idx] = make(map[uint64]struct{})
		if err := rs.applyDeltaMutations(ps, muts[ps.idx], dirty[ps.idx]); err != nil {
			return nil, fmt.Errorf("applying to partition %d: %w", ps.idx, err)
		}
	}
	return dirty, nil
}

// armDelta arms every hosted partition's dirty set (armDeltaPartition),
// after which ordinary supersteps compute only the dirty frontier.
func (rs *runState) armDelta(ctx context.Context, dirty deltaDirty) error {
	for _, ps := range rs.ownedParts() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := rs.armDeltaPartition(ps, dirty[ps.idx]); err != nil {
			return fmt.Errorf("arming partition %d: %w", ps.idx, err)
		}
	}
	return nil
}

// setNumericValue assigns f into a numeric pregel value, reporting
// whether the value type accepted it. Mutations carry optional float64
// initializers; non-numeric codecs keep their zero value.
func setNumericValue(v pregel.Value, f float64) bool {
	switch t := v.(type) {
	case *pregel.Double:
		*t = pregel.Double(f)
	case *pregel.Float:
		*t = pregel.Float(f)
	case *pregel.Int64:
		*t = pregel.Int64(f)
	default:
		return false
	}
	return true
}

// applyDeltaMutations applies one partition's slice of a journaled
// batch, in journal order, against the cloned vertex index. Vertex
// add/remove resolve through the job's Resolver with the same
// bookkeeping the in-superstep resolve operator performs; edge ops edit
// the source vertex's edge list in place (a dangling addEdge
// materializes the source with the codec's zero value, exactly like a
// message to a nonexistent vertex; a dangling removeEdge is a no-op).
// Every vertex whose record changed is added to dirty.
func (rs *runState) applyDeltaMutations(ps *partitionState, muts []delta.Mutation, dirty map[uint64]struct{}) error {
	resolver := rs.job.ResolverOrDefault()
	lookup := func(vid uint64) (*pregel.Vertex, error) {
		raw, err := ps.vertexIdx.Search(tuple.EncodeUint64(vid))
		if err == storage.ErrNotFound {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		return rs.codec.DecodeVertex(pregel.VertexID(vid), raw)
	}
	for i := range muts {
		m := &muts[i]
		key := tuple.EncodeUint64(m.ID)
		existing, err := lookup(m.ID)
		if err != nil {
			return err
		}
		had := existing != nil

		switch m.Op {
		case delta.OpAddVertex, delta.OpRemoveVertex:
			var additions []*pregel.Vertex
			if m.Op == delta.OpAddVertex {
				nv := &pregel.Vertex{ID: pregel.VertexID(m.ID), Value: rs.codec.NewVertexValue()}
				if m.Value != nil {
					setNumericValue(nv.Value, *m.Value)
				}
				additions = []*pregel.Vertex{nv}
			}
			final := resolver.Resolve(pregel.VertexID(m.ID), existing, additions, m.Op == delta.OpRemoveVertex)
			switch {
			case final == nil && had:
				if err := ps.vertexIdx.Delete(key); err != nil {
					return err
				}
				if ps.vid != nil {
					// A stale Vid entry would make the left-outer-join
					// plan resurrect the deleted vertex.
					if _, err := ps.vid.Delete(key); err != nil {
						return err
					}
				}
				ps.numVertices--
				ps.numEdges -= int64(len(existing.Edges))
				if !existing.Halted {
					ps.liveVertices--
				}
				// The record is gone; nothing remains to activate.
				delete(dirty, m.ID)
			case final != nil:
				if err := ps.vertexIdx.Insert(key, rs.codec.EncodeVertex(final)); err != nil {
					return err
				}
				if had {
					ps.numEdges += int64(len(final.Edges) - len(existing.Edges))
				} else {
					ps.numVertices++
					ps.numEdges += int64(len(final.Edges))
				}
				if !final.Halted && (!had || existing.Halted) {
					ps.liveVertices++
				}
				dirty[m.ID] = struct{}{}
			}

		case delta.OpAddEdge:
			v := existing
			if v == nil {
				v = &pregel.Vertex{ID: pregel.VertexID(m.ID), Value: rs.codec.NewVertexValue()}
			}
			var ev pregel.Value
			if rs.codec.NewEdgeValue != nil {
				ev = rs.codec.NewEdgeValue()
				if m.Value != nil {
					setNumericValue(ev, *m.Value)
				}
			}
			v.AddEdge(pregel.VertexID(m.Dst), ev)
			if err := ps.vertexIdx.Insert(key, rs.codec.EncodeVertex(v)); err != nil {
				return err
			}
			ps.numEdges++
			if !had {
				ps.numVertices++
				if !v.Halted {
					ps.liveVertices++
				}
			}
			dirty[m.ID] = struct{}{}

		case delta.OpRemoveEdge:
			if !had {
				continue // dangling removal: nothing to edit, nothing dirty
			}
			before := len(existing.Edges)
			if !existing.RemoveEdge(pregel.VertexID(m.Dst)) {
				continue // no such edge: the record did not change
			}
			if err := ps.vertexIdx.Insert(key, rs.codec.EncodeVertex(existing)); err != nil {
				return err
			}
			ps.numEdges -= int64(before - len(existing.Edges))
			dirty[m.ID] = struct{}{}

		default:
			return fmt.Errorf("core: unknown delta op %q", m.Op)
		}
	}
	return nil
}

// armDeltaPartition activates a partition's accumulated dirty set:
// every dirty record still present has its halt flag cleared (so the
// σ-filter computes it in the first delta superstep) and, when the plan
// maintains a live-vertex index, is inserted into Vid so the
// left-outer-join plan scans exactly the dirty frontier. Vertices a
// later mutation removed are skipped — their effects propagate through
// the neighbors the mutation batch also touched.
func (rs *runState) armDeltaPartition(ps *partitionState, dirty map[uint64]struct{}) error {
	ids := make([]uint64, 0, len(dirty))
	for id := range dirty {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		key := tuple.EncodeUint64(id)
		raw, err := ps.vertexIdx.Search(key)
		if err == storage.ErrNotFound {
			continue
		}
		if err != nil {
			return err
		}
		if raw[0] != 0 {
			rec := append([]byte(nil), raw...)
			rec[0] = 0
			if err := ps.vertexIdx.Insert(key, rec); err != nil {
				return err
			}
			ps.liveVertices++
		}
		if err := rs.markLive(ps, &ps.vid, key); err != nil {
			return err
		}
	}
	return nil
}
