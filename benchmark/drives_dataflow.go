package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"pregelix/internal/hyracks"
	"pregelix/internal/operators"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/internal/wire"
)

// msgPayload is a message tuple's payload field at the workload's real
// size; the float a combiner sums sits in its last 8 bytes.
func (d *drives) msgPayloadBytes() []byte {
	p := make([]byte, max(d.vol.msgPayload, 8))
	binary.BigEndian.PutUint64(p[len(p)-8:], math.Float64bits(1))
	return p
}

// shuffleSpec is a 2-partition source -> m-to-n hash partitioning ->
// sink job carrying tuples (vid, payload) per source partition; the sink
// counts what arrives. With no keys it is the empty job.
func (d *drives) shuffleSpec(name string, keys []uint64, seen *atomic.Int64) *hyracks.JobSpec {
	payload := d.msgPayloadBytes()
	spec := &hyracks.JobSpec{Name: name}
	spec.AddOp(&hyracks.OperatorDesc{
		ID: "src", Partitions: simNodes,
		NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
			part := tc.Partition
			return &hyracks.FuncSource{F: func(ctx context.Context, b *hyracks.BaseSource) error {
				var vid [8]byte
				for i := part; i < len(keys); i += simNodes {
					binary.BigEndian.PutUint64(vid[:], keys[i])
					if err := b.EmitFields(0, vid[:], payload); err != nil {
						return err
					}
				}
				return nil
			}}, nil
		},
	})
	spec.AddOp(&hyracks.OperatorDesc{
		ID: "sink", Partitions: simNodes,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			var n int64
			return &hyracks.FuncRuntime{
				OnRef:   func(_ *hyracks.BaseRuntime, _ tuple.TupleRef) error { n++; return nil },
				OnClose: func(_ *hyracks.BaseRuntime) error { seen.Add(n); return nil },
			}, nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{
		From: "src", To: "sink",
		Type:        hyracks.MToNPartitioning,
		Partitioner: hyracks.HashPartitioner(0),
	})
	return spec
}

// shuffleCost is what one transport's shuffle drive measured.
type shuffleCost struct {
	nsPerTuple, mbPerS, allocsPerTuple float64
}

// driveShuffle pushes the per-superstep message volume through the
// partitioning connector on the given transport. The per-tuple cost is
// marginal: the empty job's time is taken off first.
func (d *drives) driveShuffle(span int, label string, cluster *hyracks.Cluster, opts hyracks.ExecOptions, emptyJob time.Duration) (shuffleCost, error) {
	var walls, allocs []float64
	var bytesMoved int64
	n := len(d.keys)
	for i := 0; i < driveRepeats; i++ {
		var seen atomic.Int64
		spec := d.shuffleSpec(fmt.Sprintf("shuffle-%s-%d", label, i), d.keys, &seen)
		var res *hyracks.JobResult
		m0 := mallocs()
		el, err := d.span("hyracks.RunJobWith(shuffle,"+label+")", span, func() error {
			var err error
			res, err = hyracks.RunJobWith(d.ctx, cluster, spec, opts)
			return err
		})
		if err != nil {
			return shuffleCost{}, err
		}
		allocs = append(allocs, float64(mallocs()-m0)/float64(n))
		if got := seen.Load(); got != int64(n) {
			return shuffleCost{}, fmt.Errorf("shuffle over %s delivered %d of %d tuples", label, got, n)
		}
		walls = append(walls, el.Seconds())
		bytesMoved = 0
		for _, cs := range res.ConnStats {
			bytesMoved += cs.Bytes()
		}
	}
	wall := median(walls)
	marginal := math.Max(wall-emptyJob.Seconds(), 0)
	return shuffleCost{
		nsPerTuple:     marginal * 1e9 / float64(n),
		mbPerS:         float64(bytesMoved) / 1e6 / wall,
		allocsPerTuple: median(allocs),
	}, nil
}

// driveHyracks measures the engine's fixed cost per job and the
// in-process shuffle.
func (d *drives) driveHyracks(span int) error {
	dir, err := d.driveDir("hyracks")
	if err != nil {
		return err
	}
	cluster, err := hyracks.NewCluster(dir, simNodes, hyracks.NodeConfig{RAMBytes: d.ram, PageSize: pageSize})
	if err != nil {
		return err
	}
	var empties []float64
	for i := 0; i < d.scaledCount(200); i++ {
		var seen atomic.Int64
		spec := d.shuffleSpec(fmt.Sprintf("empty-%d", i), nil, &seen)
		el, err := d.span("hyracks.RunJobWith(empty)", span, func() error {
			_, err := hyracks.RunJobWith(d.ctx, cluster, spec, hyracks.ExecOptions{})
			return err
		})
		if err != nil {
			return err
		}
		empties = append(empties, el.Seconds()*1e6)
	}
	emptyUS := median(empties)
	d.res.set("hyracks.empty_job_us", summarize(empties))

	c, err := d.driveShuffle(span, "chan", cluster, hyracks.ExecOptions{}, time.Duration(emptyUS*1e3))
	if err != nil {
		return err
	}
	d.res.set("hyracks.shuffle_chan_ns_per_tuple", single(c.nsPerTuple))
	d.res.set("hyracks.shuffle_chan_mb_per_s", single(c.mbPerS))
	d.res.set("hyracks.shuffle_allocs_per_tuple", single(c.allocsPerTuple))
	return nil
}

// driveWire measures the same shuffle over loopback TCP with every
// stream forced onto the socket, and the JSON control plane's round
// trip with a small and a 1 MiB payload.
func (d *drives) driveWire(span int) error {
	dir, err := d.driveDir("wire")
	if err != nil {
		return err
	}
	cluster, err := hyracks.NewCluster(dir, simNodes, hyracks.NodeConfig{RAMBytes: d.ram, PageSize: pageSize})
	if err != nil {
		return err
	}
	tr, err := wire.NewTCPTransport(wire.Config{ListenAddr: "127.0.0.1:0", ForceWire: true})
	if err != nil {
		return err
	}
	defer tr.Close()
	local := make(map[hyracks.NodeID]bool)
	peers := make(map[hyracks.NodeID]string)
	for _, n := range cluster.Nodes() {
		local[n.ID] = true
		peers[n.ID] = tr.Addr()
	}
	tr.SetPeers(peers, local)
	empty := time.Duration(d.metric("hyracks.empty_job_us") * 1e3)
	c, err := d.driveShuffle(span, "tcp", cluster, hyracks.ExecOptions{Transport: tr, LocalNodes: local}, empty)
	if err != nil {
		return err
	}
	d.res.set("wire.shuffle_tcp_ns_per_tuple", single(c.nsPerTuple))
	d.res.set("wire.shuffle_tcp_mb_per_s", single(c.mbPerS))
	return d.driveRPC(span)
}

// driveRPC echoes payloads over one control connection, as the
// coordinator calls a worker.
func (d *drives) driveRPC(span int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		cc, err := wire.AcceptControl(conn)
		if err != nil {
			conn.Close()
			served <- err
			return
		}
		// ServeControl returns when the client closes the connection.
		wire.ServeControl(cc, func(_ string, data json.RawMessage) (any, error) {
			var p echoMsg
			if err := json.Unmarshal(data, &p); err != nil {
				return nil, err
			}
			return p, nil
		})
		cc.Close()
		served <- nil
	}()
	cc, err := wire.DialControl(ln.Addr().String())
	if err != nil {
		ln.Close()
		return err
	}
	caller := wire.NewCaller(cc)
	caller.Start()

	echo := func(name string, payload []byte, n int) ([]float64, error) {
		var out []float64
		for i := 0; i < n; i++ {
			var back echoMsg
			el, err := d.span(name, span, func() error {
				return caller.Call(d.ctx, "echo", echoMsg{Data: payload}, &back)
			})
			if err != nil {
				return nil, err
			}
			if len(back.Data) != len(payload) {
				return nil, fmt.Errorf("echo returned %d of %d bytes", len(back.Data), len(payload))
			}
			out = append(out, el.Seconds())
		}
		return out, nil
	}
	small, err := echo("wire.Caller.Call(64B)", make([]byte, 64), d.scaledCount(500))
	if err == nil {
		var big []float64
		big, err = echo("wire.Caller.Call(1MiB)", make([]byte, 1<<20), d.scaledCount(10))
		if err == nil {
			d.res.set("wire.rpc_rtt_us", single(median(small)*1e6))
			d.res.set("wire.rpc_1mb_ms", single(median(big)*1e3))
		}
	}
	cc.Close()
	ln.Close()
	<-served
	return err
}

// echoMsg is the RPC drive's payload; []byte travels as base64, as
// checkpoint and migration images do.
type echoMsg struct {
	Data []byte `json:"data"`
}

// sumCombiner adds the float64 in the last 8 bytes of the payload.
type sumCombiner struct{}

func (sumCombiner) First(t tuple.Tuple) tuple.Tuple {
	// The accumulator is summed into in place, so it owns its payload.
	return tuple.Tuple{t[0], append([]byte(nil), t[1]...)}
}

func (sumCombiner) Add(acc, t tuple.Tuple) tuple.Tuple {
	a, b := acc[1][len(acc[1])-8:], t[1][len(t[1])-8:]
	sum := math.Float64frombits(binary.BigEndian.Uint64(a)) + math.Float64frombits(binary.BigEndian.Uint64(b))
	binary.BigEndian.PutUint64(a, math.Float64bits(sum))
	return acc
}

// countWriter is the sink of an operator drive.
type countWriter struct{ tuples int64 }

func (c *countWriter) Open() error                    { return nil }
func (c *countWriter) NextFrame(f *tuple.Frame) error { c.tuples += int64(f.Len()); return nil }
func (c *countWriter) Fail(error)                     {}
func (c *countWriter) Close() error                   { return nil }

// messageFrames packs (vid, payload) tuples for keys into pooled frames.
// The caller returns them with releaseFrames.
func (d *drives) messageFrames(keys []uint64) []*tuple.Frame {
	payload := d.msgPayloadBytes()
	var frames []*tuple.Frame
	f := tuple.GetFrame()
	app := tuple.NewFrameAppender(f)
	var vid [8]byte
	for _, k := range keys {
		binary.BigEndian.PutUint64(vid[:], k)
		if !app.Append(vid[:], payload) {
			frames = append(frames, f)
			f = tuple.GetFrame()
			app.Reset(f)
			app.Append(vid[:], payload)
		}
	}
	return append(frames, f)
}

func releaseFrames(frames []*tuple.Frame) {
	for _, f := range frames {
		tuple.PutFrame(f)
	}
}

// messageTuples is the same stream as boxed tuples, for the
// TupleSource-based operators.
func (d *drives) messageTuples(keys []uint64) []tuple.Tuple {
	payload := d.msgPayloadBytes()
	out := make([]tuple.Tuple, len(keys))
	for i, k := range keys {
		out[i] = tuple.Tuple{vidKey(nil, k), payload}
	}
	return out
}

func sortedCopy(keys []uint64) []uint64 {
	s := append([]uint64(nil), keys...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func distinctSorted(keys []uint64) []uint64 {
	s := sortedCopy(keys)
	out := s[:0]
	for i, k := range s {
		if i == 0 || k != s[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// driveOperators measures the group-by kinds and the external sort on
// one partition's share of a superstep's messages, at the workload's
// own operator budget (so pr_fit sorts in memory and pr_spill spills),
// and the joins and the run merge.
func (d *drives) driveOperators(span int) error {
	dir, err := d.driveDir("operators")
	if err != nil {
		return err
	}
	node, err := hyracks.NewNodeController("drive", dir, hyracks.NodeConfig{RAMBytes: d.ram, PageSize: pageSize})
	if err != nil {
		return err
	}
	// One partition's share of the superstep's messages.
	keys := d.keys[:max(len(d.keys)/simNodes, 1)]
	n := float64(len(keys))
	unsorted := d.messageFrames(keys)
	defer releaseFrames(unsorted)
	sorted := d.messageFrames(sortedCopy(keys))
	defer releaseFrames(sorted)

	seq := 0
	runGroupBy := func(name string, build func(tc *hyracks.TaskContext) hyracks.PushRuntime, in []*tuple.Frame) (wall, spillMB, allocs float64, err error) {
		var walls, spills, allocCounts []float64
		for i := 0; i < driveRepeats; i++ {
			seq++
			tc := &hyracks.TaskContext{
				Ctx: d.ctx, Node: node, JobName: "drive", OperatorID: fmt.Sprintf("gb%d", seq),
				NumPartitions: 1, OperatorMem: node.OperatorMem,
			}
			io0, m0 := node.IOBytes(), mallocs()
			el, err := d.span(name, span, func() error {
				rt := build(tc)
				sink := &countWriter{}
				rt.SetOutputs([]hyracks.FrameWriter{sink})
				if err := rt.Open(); err != nil {
					return err
				}
				for _, f := range in {
					if err := rt.NextFrame(f); err != nil {
						rt.Fail(err)
						return err
					}
				}
				if err := rt.Close(); err != nil {
					return err
				}
				if sink.tuples == 0 {
					return fmt.Errorf("%s emitted nothing", name)
				}
				return nil
			})
			if err != nil {
				return 0, 0, 0, err
			}
			walls = append(walls, el.Seconds())
			spills = append(spills, float64(node.IOBytes()-io0)/1e6)
			allocCounts = append(allocCounts, float64(mallocs()-m0)/n)
		}
		return median(walls), median(spills), median(allocCounts), nil
	}

	kinds := []struct {
		metric string
		call   string
		build  func(tc *hyracks.TaskContext) hyracks.PushRuntime
		in     []*tuple.Frame
	}{
		{"operators.groupby_sort_ns_per_tuple", "operators.NewGroupByRuntime(sort)",
			func(tc *hyracks.TaskContext) hyracks.PushRuntime {
				return operators.NewGroupByRuntime(tc, operators.SortGroupBy, sumCombiner{})
			}, unsorted},
		{"operators.groupby_hashsort_ns_per_tuple", "operators.NewGroupByRuntime(hashsort)",
			func(tc *hyracks.TaskContext) hyracks.PushRuntime {
				return operators.NewGroupByRuntime(tc, operators.HashSortGroupBy, sumCombiner{})
			}, unsorted},
		{"operators.groupby_preclustered_ns_per_tuple", "operators.NewGroupByRuntime(preclustered)",
			func(tc *hyracks.TaskContext) hyracks.PushRuntime {
				return operators.NewGroupByRuntime(tc, operators.PreclusteredGroupBy, sumCombiner{})
			}, sorted},
		{"operators.extsort_ns_per_tuple", "operators.NewExternalSortRuntime",
			func(tc *hyracks.TaskContext) hyracks.PushRuntime { return operators.NewExternalSortRuntime(tc) }, unsorted},
	}
	for i, k := range kinds {
		wall, spill, allocs, err := runGroupBy(k.call, k.build, k.in)
		if err != nil {
			return err
		}
		d.res.set(k.metric, single(wall*1e9/n))
		if i == 0 { // the sort group-by is the plan PageRank runs
			d.res.set("operators.groupby_spill_mb", single(spill))
			d.res.set("operators.groupby_allocs_per_tuple", single(allocs))
		}
	}
	return d.driveJoins(span, node, keys)
}

// driveJoins measures the two join plans over a B-tree of one
// partition's vertices on the workload's buffer cache, and the run
// merge.
func (d *drives) driveJoins(span int, node *hyracks.NodeController, keys []uint64) error {
	vertices := d.graph.VertexIDs()
	vertices = vertices[:max(len(vertices)/simNodes, 1)]
	value := make([]byte, max(d.vol.vertexBytes, 1))
	bt, err := storage.CreateBTree(node.BufferCache, node.TempPath("join-vertices"))
	if err != nil {
		return err
	}
	defer bt.Drop()
	loader, err := bt.NewBulkLoader(0.9)
	if err != nil {
		return err
	}
	for _, id := range vertices {
		if err := loader.Add(vidKey(nil, id), value); err != nil {
			return err
		}
	}
	if err := loader.Finish(); err != nil {
		return err
	}
	idx := storage.AsIndex(bt)
	// Combined messages arrive sorted and distinct, as the msg run file
	// holds them.
	msgs := d.messageTuples(distinctSorted(keys))
	nop := func(vid, msg, vertex []byte) error { return nil }

	var foj, loj, merge []float64
	for i := 0; i < driveRepeats; i++ {
		el, err := d.span("operators.FullOuterIndexJoin", span, func() error {
			return operators.FullOuterIndexJoin(operators.NewSliceSource(msgs), idx, nop)
		})
		if err != nil {
			return err
		}
		foj = append(foj, el.Seconds()*1e9/float64(len(vertices)))

		el, err = d.span("operators.ProbeJoinLeftOuter", span, func() error {
			return operators.ProbeJoinLeftOuter(operators.NewSliceSource(msgs), idx, nop)
		})
		if err != nil {
			return err
		}
		loj = append(loj, el.Seconds()*1e9/float64(len(msgs)))

		// Four sorted runs of the superstep's messages, merged and
		// combined as the group-by's final phase does.
		all := d.messageTuples(sortedCopy(keys))
		const runs = 4
		srcs := make([]operators.TupleSource, runs)
		for r := range srcs {
			var part []tuple.Tuple
			for j := r; j < len(all); j += runs {
				part = append(part, all[j])
			}
			srcs[r] = operators.NewSliceSource(part)
		}
		el, err = d.span("operators.MergeSources", span, func() error {
			return operators.MergeSources(srcs, sumCombiner{}, func(tuple.Tuple) error { return nil })
		})
		if err != nil {
			return err
		}
		merge = append(merge, el.Seconds()*1e9/float64(len(all)))
	}
	d.res.set("operators.foj_ns_per_vertex", single(median(foj)))
	d.res.set("operators.loj_ns_per_probe", single(median(loj)))
	d.res.set("operators.merge_ns_per_tuple", single(median(merge)))
	return nil
}

// driveTuple measures frame append and read, frame images, and the
// stream codec on vid-sorted message frames (what a Msg run file,
// a shuffle stream and a checkpoint image hold).
func (d *drives) driveTuple(span int) error {
	keys := sortedCopy(d.keys)
	n := float64(len(keys))
	payload := d.msgPayloadBytes()

	var appends, allocs []float64
	for i := 0; i < driveRepeats; i++ {
		f := tuple.GetFrame()
		app := tuple.NewFrameAppender(f)
		var vid [8]byte
		m0 := mallocs()
		el, _ := d.span("tuple.FrameAppender.Append", span, func() error {
			for _, k := range keys {
				binary.BigEndian.PutUint64(vid[:], k)
				if !app.Append(vid[:], payload) {
					f.Reset()
					app.Append(vid[:], payload)
				}
			}
			return nil
		})
		allocs = append(allocs, float64(mallocs()-m0)/n)
		tuple.PutFrame(f)
		appends = append(appends, el.Seconds()*1e9/n)
	}
	d.res.set("tuple.append_ns_per_tuple", single(median(appends)))
	d.res.set("tuple.allocs_per_tuple", single(median(allocs)))

	frames := d.messageFrames(keys)
	defer releaseFrames(frames)
	var reads []float64
	var sink int
	for i := 0; i < driveRepeats; i++ {
		el, _ := d.span("tuple.TupleRef.Field", span, func() error {
			for _, f := range frames {
				for t := 0; t < f.Len(); t++ {
					r := f.Tuple(t)
					sink += len(r.Field(0)) + len(r.Field(1))
				}
			}
			return nil
		})
		reads = append(reads, el.Seconds()*1e9/(2*n))
	}
	if sink == 0 {
		return fmt.Errorf("frames read back empty")
	}
	d.res.set("tuple.read_ns_per_field", single(median(reads)))

	var image bytes.Buffer
	var writes, readBacks, encodes []float64
	var rawBytes, encodedBytes int64
	for i := 0; i < driveRepeats; i++ {
		image.Reset()
		el, err := d.span("tuple.WriteFrame", span, func() error {
			for _, f := range frames {
				if err := tuple.WriteFrame(&image, f); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		rawBytes = int64(image.Len())
		writes = append(writes, mbPerS(rawBytes, el))

		rd := bytes.NewReader(image.Bytes())
		into := tuple.GetFrame()
		el, err = d.span("tuple.ReadFrameInto", span, func() error {
			for {
				if err := tuple.ReadFrameInto(rd, into); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
		tuple.PutFrame(into)
		if err != nil {
			return err
		}
		readBacks = append(readBacks, mbPerS(rawBytes, el))

		enc := tuple.NewFrameEncoder(tuple.CompressAuto)
		encodedBytes = 0
		el, err = d.span("tuple.FrameEncoder.EncodeFrame(auto)", span, func() error {
			for _, f := range frames {
				kind, body, err := enc.EncodeFrame(f)
				if err != nil {
					return err
				}
				if kind == tuple.EncRaw {
					encodedBytes += int64(f.FrameImageSize())
				} else {
					encodedBytes += int64(len(body))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		encodes = append(encodes, mbPerS(rawBytes, el))
	}
	d.res.set("tuple.image_write_mb_per_s", single(median(writes)))
	d.res.set("tuple.image_read_mb_per_s", single(median(readBacks)))
	d.res.set("tuple.codec_auto_mb_per_s", single(median(encodes)))
	d.res.set("tuple.codec_auto_ratio", single(float64(rawBytes)/float64(encodedBytes)))
	return nil
}
