package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"

	"pregelix/internal/hyracks"
	"pregelix/internal/operators"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel"
)

// Output ports of the compute operator; the filter, compute UDF call,
// Vertex update, and field extraction are fused into the join operator
// as "mini-operators" (Section 5.3.2), so the join/compute task feeds
// all downstream flows of Figures 3-5 directly.
const (
	portMsgs      = 0 // D3: outgoing messages
	portMutations = 1 // D6: vertex additions/removals
	portGS        = 2 // D4+D5: pre-aggregated global state contribution
)

// asErr wraps errors.As for the failure manager.
func asErr(err error, target any) bool { return errors.As(err, target) }

// needVid reports whether the Vid live-vertex index must be maintained:
// whenever the left-outer-join plan may run, so under AutoJoin too, where
// the planner may switch to it at any superstep boundary.
func (rs *runState) needVid() bool {
	return rs.job.Join != pregel.FullOuterJoin
}

// createVid creates an empty Vid index for ps. No caller does so before
// it holds a live vertex to put in: a partition with none has no index,
// and nil reads as the empty live set (newVidSource).
func (rs *runState) createVid(ps *partitionState) (*storage.BTree, error) {
	return storage.CreateBTree(ps.node.BufferCache,
		rs.tempPath(ps.node, fmt.Sprintf("vid-p%d", ps.idx)))
}

// markLive adds one vertex to the Vid index held in *vid, out of scan
// order (mutation resolve, delta arming), creating the index if this is
// the partition's first live vertex.
func (rs *runState) markLive(ps *partitionState, vid **storage.BTree, key []byte) error {
	if !rs.needVid() {
		return nil
	}
	if *vid == nil {
		vt, err := rs.createVid(ps)
		if err != nil {
			return err
		}
		*vid = vt
	}
	return (*vid).Insert(key, nil)
}

// vidBuilder bulk-loads a partition's Vid index from live vertices
// arriving in vid order — the superstep's scan (Figure 8's D11/D12
// flows) and an image restore — when the plan maintains one.
type vidBuilder struct {
	rs     *runState
	ps     *partitionState
	tree   *storage.BTree
	loader *storage.BulkLoader
}

func (b *vidBuilder) add(key []byte) error {
	if !b.rs.needVid() {
		return nil
	}
	if b.tree == nil {
		vt, err := b.rs.createVid(b.ps)
		if err != nil {
			return err
		}
		b.tree = vt
		if b.loader, err = vt.NewBulkLoader(1.0); err != nil {
			return err
		}
	}
	return b.loader.Add(key, nil)
}

// finish completes the load and hands over the index: nil if no vertex
// was live.
func (b *vidBuilder) finish() (*storage.BTree, error) {
	if b.tree == nil {
		return nil, nil
	}
	if err := b.loader.Finish(); err != nil {
		return nil, err
	}
	vt := b.tree
	b.tree = nil
	return vt, nil
}

// abort drops the index of a load that did not finish.
func (b *vidBuilder) abort() {
	if b.tree != nil {
		b.tree.Drop()
		b.tree = nil
	}
}

// lojSelectivityThreshold is the fraction of the vertex relation below
// which the planner prefers probing over scanning: index point lookups
// cost several page accesses each, so the probe side must be a small
// minority of the relation to beat one sequential pass (the trade-off
// Figure 14 measures).
const lojSelectivityThreshold = 0.25

// chooseJoinFor is the join planner, the only one: under AutoJoin it
// estimates the next superstep's compute input cardinality (distinct
// message receivers plus live vertices, both known exactly from the
// previous superstep) and picks the cheaper join plan; any other hint is
// run as given. The superstep driver calls it once per superstep, in
// both engines, and every participant runs the join it chose.
func chooseJoinFor(job *pregel.Job, gs *globalState, ss int64) pregel.JoinKind {
	if ss == 1 {
		// Every vertex is live in superstep 1: scan wins, whatever the
		// hint says — and no Vid index has to exist before the first scan
		// builds one.
		return pregel.FullOuterJoin
	}
	if job.Join != pregel.AutoJoin {
		return job.Join
	}
	touched := gs.Messages + gs.LiveVertices // upper bound on probes
	if gs.NumVertices > 0 &&
		float64(touched) < lojSelectivityThreshold*float64(gs.NumVertices) {
		return pregel.LeftOuterJoin
	}
	return pregel.FullOuterJoin
}

// roundName names superstep ss's round of the superstep plan: its wire
// streams and temp files.
func (rs *runState) roundName(ss int64) string {
	name := rs.job.Name + "-ss" + strconv.FormatInt(ss, 10)
	if rs.attempt > 0 {
		// Recovery epoch: a fresh name gives the retried superstep fresh
		// wire-stream identities (see runState.attempt).
		name += ".r" + strconv.FormatInt(rs.attempt, 10)
	}
	return name
}

// buildSuperstepJob compiles the physical superstep plan (Figure 8) for
// the current partition table from the job's plan hints: group-by
// strategy (Figure 7), connector policy, and vertex storage. It holds
// nothing of one superstep: its tasks read the superstep, its join and
// the global state from the runState when a round is armed.
func (rs *runState) buildSuperstepJob() *hyracks.JobSpec {
	p := len(rs.parts)
	locs := rs.locations()
	spec := rs.newSpec(rs.job.Name + "-superstep")

	// Join + compute source, pinned to the vertex partitions.
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "compute",
		Partitions: p,
		Locations:  locs,
		NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
			return &computeSource{rs: rs, ss: rs.ss, tc: tc, join: rs.join}, nil
		},
	})

	// Message combination: sender-side group-by fused with compute,
	// then redistribution, then receiver-side group-by fused into the
	// per-partition Msg file writer.
	gbKind := groupByKind(rs.job)
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "gb-local",
		Partitions: p,
		Locations:  locs,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return operators.NewGroupByRuntime(tc, gbKind, newMsgCombiner(rs.job)), nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{From: "compute", FromPort: portMsgs, To: "gb-local", Type: hyracks.OneToOne})

	recvKind := gbKind
	connType := hyracks.MToNPartitioning
	var cmp tuple.RefComparator
	if rs.job.Connector == pregel.MergeConnector {
		connType = hyracks.MToNPartitioningMerging
		cmp = tuple.Field0RefCompare
		recvKind = operators.PreclusteredGroupBy
	}
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "gb-final",
		Partitions: p,
		Locations:  locs,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return operators.NewGroupByRuntime(tc, recvKind, newMsgCombiner(rs.job)), nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{
		From: "gb-local", To: "gb-final",
		Type:        connType,
		Partitioner: rs.vidPartitioner(),
		Comparator:  cmp,
	})

	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "msg-sink",
		Partitions: p,
		Locations:  locs,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return newMsgSink(rs, tc)
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{From: "gb-final", To: "msg-sink", Type: hyracks.OneToOne})

	// Graph mutations: redistribute by vid, group + resolve + apply
	// (Figure 5). The group-by is receiver-side only because resolve is
	// not guaranteed to be distributive (Section 5.3.3).
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "resolve",
		Partitions: p,
		Locations:  locs,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return newResolveSink(rs, tc), nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{
		From: "compute", FromPort: portMutations, To: "resolve",
		Type:        hyracks.MToNPartitioning,
		Partitioner: rs.vidPartitioner(),
	})

	// Global state: two-stage aggregation; stage one (per-partition
	// pre-aggregation) is fused inside the compute task, stage two is
	// the single global aggregator below (Section 5.3.3).
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "gs",
		Partitions: 1,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return newGSSink(rs), nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{From: "compute", FromPort: portGS, To: "gs", Type: hyracks.ReduceToOne})

	return spec
}

// groupByKind is the group-by policy of the job's senders: the table
// under the HashSort hint when the job has a combiner to fold into it,
// else the sort. Without a combiner every fold appends to a growing
// message list, which the table would re-append whole at each message.
func groupByKind(job *pregel.Job) operators.GroupByKind {
	if job.GroupBy == pregel.HashSortGroupBy && job.Combiner != nil {
		return operators.HashSortGroupBy
	}
	return operators.SortGroupBy
}

// msgCombiner adapts the job's message combiner to the tuple level.
// Message payloads are encoded lists; without a user combiner, lists for
// the same destination are concatenated (the default "gather into a
// list" combine of the paper's footnote 4).
//
// One msgCombiner serves one group-by task: it decodes into message
// Values it keeps, and an accumulator's payload is the accumulator's to
// write, so that a combine is Unmarshal, Combine and Marshal over the old
// payload, in place, with no allocation. The group-bys hand First the
// bytes that stay with the group, each field cut at its length: their own
// record under the hash policy, which is where the fold then happens.
type msgCombiner struct {
	codec   *pregel.Codec
	combine pregel.Combiner
	// av and bv are the decoded lists of the accumulator and of the
	// tuple folded into it, reused from Add to Add.
	av, bv []pregel.Value
}

func newMsgCombiner(job *pregel.Job) *msgCombiner {
	return &msgCombiner{codec: &job.Codec, combine: job.Combiner}
}

// First returns its argument. Only a payload with spare capacity, which
// is a view of a buffer that goes on behind it and so not the
// accumulator's to write, is replaced by a copy without.
func (c *msgCombiner) First(t tuple.Tuple) tuple.Tuple {
	if n := len(t[1]); cap(t[1]) > n {
		t[1] = append(make([]byte, 0, n), t[1]...)
	}
	return t
}

func (c *msgCombiner) Add(acc, t tuple.Tuple) tuple.Tuple {
	if c.combine == nil {
		acc[1] = pregel.AppendMsgLists(acc[1], t[1])
		return acc
	}
	var err error
	if c.av, err = c.codec.DecodeMsgListInto(c.av, acc[1]); err == nil {
		c.bv, err = c.codec.DecodeMsgListInto(c.bv, t[1])
	}
	if err != nil {
		panic(fmt.Sprintf("pregelix: corrupt message list: %v", err))
	}
	var m pregel.Value
	for _, list := range [2][]pregel.Value{c.av, c.bv} {
		for _, x := range list {
			if m == nil {
				m = x
			} else {
				m = c.combine.Combine(m, x)
			}
		}
	}
	// Everything was decoded above, so the old payload can be overwritten.
	acc[1] = pregel.AppendMsgList(acc[1][:0], m)
	return acc
}

// newMsgSink writes the combined, vid-sorted message stream to the
// partition's Msg run for the next superstep (Section 5.2): a temporary
// file once it outgrows a frame, no run at all when no message arrived.
func newMsgSink(rs *runState, tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
	ps := rs.parts[tc.Partition]
	var rf *storage.RunFile
	return &hyracks.FuncRuntime{
		OnOpen: func(_ *hyracks.BaseRuntime) error {
			rf = storage.NewRunFile(tc.TempPath("msg-v" + strconv.FormatInt(rs.nextSeq(), 10)))
			return nil
		},
		OnRef: func(_ *hyracks.BaseRuntime, r tuple.TupleRef) error {
			return rf.AppendRef(r)
		},
		OnClose: func(_ *hyracks.BaseRuntime) error {
			if err := rf.CloseWrite(); err != nil {
				rf.Delete()
				return err
			}
			tc.AddIOBytes(rf.PayloadBytes())
			ps.nextMsg, ps.nextMsgs = nil, rf.Count()
			if ps.nextMsgs > 0 {
				ps.nextMsg = rf
			}
			return nil
		},
		OnFail: func(_ *hyracks.BaseRuntime, _ error) {
			// Aborted superstep (peer failure, cancellation): the half-
			// written run never becomes ps.nextMsg, so its pooled frame,
			// fd and temp file must be reclaimed here.
			if rf != nil {
				rf.Delete()
			}
		},
	}, nil
}

// Mutation op codes for the mutation flow tuples (vid, op, vertexBytes).
const (
	mutAdd    = 1
	mutRemove = 2
)

// resolveSink buffers the partition's mutation tuples, then groups them
// by vid and applies the resolve UDF to the Vertex relation via the
// index insert/delete operator. It applies at Close, which the dataflow
// guarantees happens only after every compute task has finished its
// scan, so index mutation never races a scan.
type resolveSink struct {
	hyracks.BaseRuntime
	rs     *runState
	ps     *partitionState
	muts   map[uint64]*mutationSet
	order  []uint64
	failed bool
}

type mutationSet struct {
	additions []*pregel.Vertex
	removed   bool
}

func newResolveSink(rs *runState, tc *hyracks.TaskContext) *resolveSink {
	return &resolveSink{rs: rs, ps: rs.parts[tc.Partition], muts: make(map[uint64]*mutationSet)}
}

func (r *resolveSink) Open() error { return nil }

func (r *resolveSink) NextFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		t := f.Tuple(i)
		vid := tuple.DecodeUint64(t.Field(0))
		ms := r.muts[vid]
		if ms == nil {
			ms = &mutationSet{}
			r.muts[vid] = ms
			r.order = append(r.order, vid)
		}
		switch op := t.Field(1); op[0] {
		case mutAdd:
			// DecodeVertex copies all bytes it keeps, so the retained
			// vertex does not alias the borrowed frame.
			v, err := r.rs.codec.DecodeVertex(pregel.VertexID(vid), t.Field(2))
			if err != nil {
				return fmt.Errorf("pregelix: corrupt mutation vertex: %w", err)
			}
			ms.additions = append(ms.additions, v)
		case mutRemove:
			ms.removed = true
		default:
			return fmt.Errorf("pregelix: unknown mutation op %d", op[0])
		}
	}
	return nil
}

func (r *resolveSink) Fail(err error) { r.failed = true }

func (r *resolveSink) Close() error {
	if r.failed {
		return nil
	}
	resolver := r.rs.job.ResolverOrDefault()
	for _, vid := range r.order {
		ms := r.muts[vid]
		key := tuple.EncodeUint64(vid)
		var existing *pregel.Vertex
		if raw, err := r.ps.vertexIdx.Search(key); err == nil {
			v, derr := r.rs.codec.DecodeVertex(pregel.VertexID(vid), raw)
			if derr != nil {
				return derr
			}
			existing = v
		} else if err != storage.ErrNotFound {
			return err
		}
		had := existing != nil
		final := resolver.Resolve(pregel.VertexID(vid), existing, ms.additions, ms.removed)
		switch {
		case final == nil && had:
			if err := r.ps.vertexIdx.Delete(key); err != nil {
				return err
			}
			r.ps.numVertices--
			r.ps.numEdges -= int64(len(existing.Edges))
			if r.ps.nextVid != nil {
				if _, err := r.ps.nextVid.Delete(key); err != nil {
					return err
				}
			}
		case final != nil:
			if err := r.ps.vertexIdx.Insert(key, r.rs.codec.EncodeVertex(final)); err != nil {
				return err
			}
			if had {
				r.ps.numEdges += int64(len(final.Edges) - len(existing.Edges))
			} else {
				r.ps.numVertices++
				r.ps.numEdges += int64(len(final.Edges))
			}
			// Newly materialized vertices are live next superstep.
			if !final.Halted {
				if err := r.rs.markLive(r.ps, &r.ps.nextVid, key); err != nil {
					return err
				}
			}
			if !final.Halted && !had {
				r.ps.liveVertices++
			}
		}
	}
	return nil
}

// gsSink is stage two of the global aggregation: it folds the
// per-partition contribution tuples into the pending global state.
// Contribution tuple layout: (haltAll u8, hasAgg u8, aggBytes).
type gsSink struct {
	hyracks.BaseRuntime
	rs      *runState
	haltAll bool
	agg     pregel.Value
	failed  bool
}

func newGSSink(rs *runState) *gsSink {
	return &gsSink{rs: rs, haltAll: true}
}

func (g *gsSink) Open() error { return nil }

func (g *gsSink) NextFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		t := f.Tuple(i)
		g.haltAll = g.haltAll && tuple.DecodeBool(t.Field(0))
		if tuple.DecodeBool(t.Field(1)) {
			if g.rs.job.Aggregator == nil {
				return fmt.Errorf("pregelix: aggregate contribution without Aggregator")
			}
			contrib, err := decodeAggValue(g.rs.job, t.Field(2))
			if err != nil {
				return err
			}
			if g.agg == nil {
				g.agg = contrib
			} else {
				g.agg = g.rs.job.Aggregator.Merge(g.agg, contrib)
			}
		}
	}
	return nil
}

func (g *gsSink) Fail(err error) { g.failed = true }

func (g *gsSink) Close() error {
	if g.failed {
		return nil
	}
	g.rs.pendingGS.haltAll = g.haltAll
	if g.agg != nil {
		g.rs.pendingGS.aggregate = pregel.MarshalValue(g.agg)
		g.rs.pendingGS.hasAgg = true
	}
	return nil
}

// decodeAggValue decodes a global-aggregate value with the aggregator's
// zero as the type witness.
func decodeAggValue(job *pregel.Job, data []byte) (pregel.Value, error) {
	v := job.Aggregator.Zero()
	if err := v.Unmarshal(data); err != nil {
		return nil, err
	}
	return v, nil
}

// computeSource is the fused join + compute task for one partition: the
// left side of Figure 8 (index full outer join) or the right side
// (NullMsg/Vid merge + index left outer join), with the compute UDF,
// vertex update, and projection mini-operators inlined.
type computeSource struct {
	hyracks.BaseSource
	rs   *runState
	ss   int64
	tc   *hyracks.TaskContext
	join pregel.JoinKind

	// The task's own vertex, message list and record buffer: every row is
	// decoded into the first two and encoded into the third, so a vertex
	// passes through Compute without an allocation of the engine's.
	dec     *pregel.VertexDecoder
	msgVals []pregel.Value
	enc     []byte

	// cur is the scan a full-outer-join task reads its vertices from, nil
	// under the left-outer-join plan.
	cur storage.IndexCursor
}

// Run executes the partition's share of the superstep.
func (c *computeSource) Run(ctx context.Context) error {
	if err := c.OpenOutputs(); err != nil {
		c.FailOutputs(err)
		return err
	}
	if err := c.run(ctx); err != nil {
		c.FailOutputs(err)
		return err
	}
	return c.CloseOutputs()
}

func (c *computeSource) run(ctx context.Context) error {
	rs, ps := c.rs, c.rs.parts[c.tc.Partition]

	// Open the combined-message stream of the previous superstep: as views
	// of the reader's frame for the full-outer merge, which is done with a
	// message before it asks for the next, and boxed for the left-outer
	// plan, whose ChooseMerge returns a tuple after advancing its source.
	var msgs operators.TupleSource = emptySource{}
	if ps.msg != nil {
		rr, err := ps.msg.Reader()
		if err != nil {
			return err
		}
		defer rr.Close()
		if msgs = rr; c.join != pregel.LeftOuterJoin {
			msgs = operators.NewRunSource(rr)
		}
	}

	// Vertex updates (flow D2) the scan's cursor does not take in place
	// (processVertex) are spooled and applied after the scan: the same-task
	// deferral keeps the update mini-operator from moving records in pages
	// the cursor has pinned.
	updates := storage.NewRunFile(c.tc.TempPath("updates"))
	defer updates.Delete()

	// The left-outer-join plan rebuilds the Vid live-vertex index for
	// the next superstep via a bulk load fed in vid order (Figure 8's
	// D11/D12 flows). AutoJoin maintains it under both plans so the
	// planner may switch at any boundary.
	vids := &vidBuilder{rs: rs, ps: ps}
	defer vids.abort()

	c.dec = rs.codec.NewVertexDecoder()
	cc := &computeCtx{rs: rs, src: c, ss: c.ss}
	ps.liveVertices = 0
	cc.haltAll = true

	emit := func(vid, msgPayload, vertexBytes []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return c.processVertex(cc, ps, updates, vids, vid, msgPayload, vertexBytes)
	}

	if c.join == pregel.LeftOuterJoin {
		vidScan, err := newVidSource(ps)
		if err != nil {
			return err
		}
		defer vidScan.close()
		merged := operators.NewChooseMerge(msgs, vidScan)
		if err := operators.ProbeJoinLeftOuter(merged, ps.vertexIdx, emit); err != nil {
			return err
		}
	} else {
		var err error
		if c.cur, err = ps.vertexIdx.ScanFrom(nil); err != nil {
			return err
		}
		err = operators.FullOuterMerge(msgs, c.cur, emit)
		c.cur.Close() // before applyUpdates writes to the tree
		if err != nil {
			return err
		}
	}

	// Apply the deferred vertex updates (flow D2).
	if err := updates.CloseWrite(); err != nil {
		return err
	}
	c.tc.AddIOBytes(updates.PayloadBytes() * 2)
	if err := applyUpdates(ps.vertexIdx, updates); err != nil {
		return err
	}
	var err error
	if ps.nextVid, err = vids.finish(); err != nil {
		return err
	}

	// Emit the pre-aggregated global-state contribution (stage one of
	// the two-stage aggregation).
	gsTuple := tuple.Tuple{
		tuple.EncodeBool(cc.haltAll),
		tuple.EncodeBool(cc.agg != nil),
		pregel.MarshalValue(cc.agg),
	}
	return c.Emit(portGS, gsTuple)
}

// applyUpdates replays the spooled (vid, vertex) updates into the vertex
// index. Insert copies what it keeps, so the records are read in place.
func applyUpdates(idx storage.Index, updates *storage.RunFile) error {
	if updates.Count() == 0 {
		return nil
	}
	ur, err := updates.Reader()
	if err != nil {
		return err
	}
	defer ur.Close()
	for {
		t, err := ur.NextRef()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := idx.Insert(t.Field(0), t.Field(1)); err != nil {
			return err
		}
	}
}

// processVertex applies the σ(halt=false || msg!=NULL) filter and the
// compute UDF to one joined row. vertexBytes may be a view of the page
// the scan has pinned: it is read before Compute runs and not after.
func (c *computeSource) processVertex(cc *computeCtx, ps *partitionState,
	updates *storage.RunFile, vids *vidBuilder,
	vid, msgPayload, vertexBytes []byte) error {

	rs := c.rs
	firstOfJob := c.ss == 1
	// σ(halt=false || msg!=NULL) fast path: a halted vertex with no
	// incoming message is scanned (the FOJ pays that I/O) but never
	// decoded or computed — the filter mini-operator of Section 5.3.2.
	if vertexBytes != nil && msgPayload == nil && !firstOfJob && vertexBytes[0] != 0 {
		return nil
	}
	var v *pregel.Vertex
	created := false
	if vertexBytes == nil {
		// Left-outer case of Figure 2: a message addressed to a vertex
		// that does not exist materializes it with NULL-ish fields.
		v = &pregel.Vertex{
			ID:    pregel.VertexID(tuple.DecodeUint64(vid)),
			Value: rs.codec.NewVertexValue(),
		}
		created = true
	} else {
		var err error
		v, err = c.dec.Decode(pregel.VertexID(tuple.DecodeUint64(vid)), vertexBytes)
		if err != nil {
			return err
		}
	}

	hasMsg := msgPayload != nil
	firstStep := c.ss == 1 && rs.gs.Superstep == 0
	active := !v.Halted || hasMsg || firstStep
	if !active {
		// Keep a halted, messageless vertex as-is; it contributes
		// halt=true implicitly (no change to cc.haltAll).
		return nil
	}
	if hasMsg {
		v.Halted = false // message receipt reactivates the vertex
	}
	if firstStep {
		v.Halted = false
	}

	var msgVals []pregel.Value
	if hasMsg {
		var err error
		if c.msgVals, err = rs.codec.DecodeMsgListInto(c.msgVals, msgPayload); err != nil {
			return err
		}
		msgVals = c.msgVals
	}

	cc.vertexSent = 0
	if err := rs.job.Program.Compute(cc, v, msgVals); err != nil {
		return err
	}
	if cc.err != nil {
		return cc.err
	}

	// Persist the (possibly updated) vertex, D2: at the cursor if the
	// record lies under it (a created vertex has none: the scan has read
	// ahead to a later one) and the cursor takes it, else deferred.
	c.enc = rs.codec.AppendVertex(c.enc[:0], v)
	if created || c.cur == nil || !c.cur.Update(c.enc) {
		if err := updates.AppendFields(vid, c.enc); err != nil {
			return err
		}
	}
	if created {
		ps.numVertices++
		ps.numEdges += int64(len(v.Edges))
	}

	// Global halt contribution: false unless the vertex halted with no
	// outbound messages.
	vertexHalts := v.Halted && cc.vertexSent == 0
	cc.haltAll = cc.haltAll && vertexHalts
	if !v.Halted {
		ps.liveVertices++
		return vids.add(vid)
	}
	return nil
}

// computeCtx implements pregel.Context for one partition task.
type computeCtx struct {
	rs  *runState
	src *computeSource
	ss  int64

	haltAll    bool
	agg        pregel.Value
	vertexSent int
	err        error

	msgBuf []byte // SendMessage's encoding buffer; EmitFields copies out of it
}

func (c *computeCtx) Superstep() int64   { return c.ss }
func (c *computeCtx) NumVertices() int64 { return c.rs.gs.NumVertices }
func (c *computeCtx) NumEdges() int64    { return c.rs.gs.NumEdges }

func (c *computeCtx) GlobalAggregate() pregel.Value {
	if c.rs.gs.Aggregate == nil || c.rs.job.Aggregator == nil {
		return nil
	}
	v, err := decodeAggValue(c.rs.job, c.rs.gs.Aggregate)
	if err != nil {
		c.err = err
		return nil
	}
	return v
}

func (c *computeCtx) Config(key string) string { return c.rs.job.Config[key] }

func (c *computeCtx) SendMessage(to pregel.VertexID, m pregel.Value) {
	var vid [8]byte
	binary.BigEndian.PutUint64(vid[:], uint64(to))
	c.msgBuf = pregel.AppendMsgList(c.msgBuf[:0], m)
	if err := c.src.EmitFields(portMsgs, vid[:], c.msgBuf); err != nil && c.err == nil {
		c.err = err
	}
	c.vertexSent++
}

func (c *computeCtx) Aggregate(v pregel.Value) {
	if c.rs.job.Aggregator == nil {
		if c.err == nil {
			c.err = fmt.Errorf("pregelix: Aggregate called without Job.Aggregator")
		}
		return
	}
	if c.agg == nil {
		c.agg = c.rs.job.Aggregator.Merge(c.rs.job.Aggregator.Zero(), v)
		return
	}
	c.agg = c.rs.job.Aggregator.Merge(c.agg, v)
}

func (c *computeCtx) AddVertex(v *pregel.Vertex) {
	t := tuple.Tuple{
		tuple.EncodeUint64(uint64(v.ID)),
		{mutAdd},
		c.rs.codec.EncodeVertex(v),
	}
	if err := c.src.Emit(portMutations, t); err != nil && c.err == nil {
		c.err = err
	}
}

func (c *computeCtx) RemoveVertex(id pregel.VertexID) {
	t := tuple.Tuple{tuple.EncodeUint64(uint64(id)), {mutRemove}, nil}
	if err := c.src.Emit(portMutations, t); err != nil && c.err == nil {
		c.err = err
	}
}

// emptySource is a TupleSource with no tuples (superstep 1's empty Msg).
type emptySource struct{}

func (emptySource) Next() (tuple.Tuple, error) { return nil, io.EOF }

// vidSource scans the Vid index as (vid, NULL) tuples — the NullMsg
// function of Figure 8.
type vidSource struct {
	cur storage.IndexCursor
}

func newVidSource(ps *partitionState) (*vidSource, error) {
	if ps.vid == nil {
		return &vidSource{}, nil
	}
	cur, err := storage.AsIndex(ps.vid).ScanFrom(nil)
	if err != nil {
		return nil, err
	}
	return &vidSource{cur: cur}, nil
}

func (s *vidSource) Next() (tuple.Tuple, error) {
	if s.cur == nil {
		return nil, io.EOF
	}
	k, _, ok := s.cur.Next()
	if !ok {
		if err := s.cur.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	return tuple.Tuple{k, nil}, nil
}

func (s *vidSource) close() {
	if s.cur != nil {
		s.cur.Close()
	}
}
