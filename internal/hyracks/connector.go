package hyracks

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"pregelix/internal/tuple"
)

// partitionSender is the sender endpoint of a partitioning connector: it
// routes each tuple record to the pooled frame of its consumer partition
// (one memmove per tuple, no boxing) and ships full frames downstream
// through the transport's send ports.
type partitionSender struct {
	ctx   context.Context
	ports []SendPort
	part  Partitioner
	bufs  []*tuple.Frame
	apps  []tuple.FrameAppender

	// Stats shared across all sender endpoints of the connector.
	stats *ConnStats
}

// ConnStats aggregates traffic over one connector. Tuple and byte counts
// are taken from the frame header (Len/DataBytes) at flush time. The
// counters are atomics: they sit on the per-flush hot path of every
// sender endpoint and are also read by socket goroutines on wire
// transports.
type ConnStats struct {
	tuples atomic.Int64
	bytes  atomic.Int64
	frames atomic.Int64
	// wire counts bytes actually put on a network socket for this
	// connector (message headers included, after any frame compression);
	// it stays zero on in-process channel transports. wireRaw counts
	// what the same frames would have cost uncompressed — the exact
	// bytes a raw stream sends — so wireRaw/wire is the connector's
	// true wire compression ratio, unpolluted by process-local streams
	// that never touch a socket.
	wire    atomic.Int64
	wireRaw atomic.Int64
}

func (s *ConnStats) add(tuples int, bytes int) {
	if s == nil {
		return
	}
	s.tuples.Add(int64(tuples))
	s.bytes.Add(int64(bytes))
	s.frames.Add(1)
}

// Tuples returns the tuple count shipped over the connector so far.
func (s *ConnStats) Tuples() int64 { return s.tuples.Load() }

// Bytes returns the payload bytes shipped over the connector so far.
func (s *ConnStats) Bytes() int64 { return s.bytes.Load() }

// Frames returns the frame count shipped over the connector so far.
func (s *ConnStats) Frames() int64 { return s.frames.Load() }

// AddWireBytes records one DATA message put on the network for this
// connector: raw is the message's uncompressed size (the same message
// carrying the raw frame image), wire is what actually went out. Wire
// transports call it per DATA message; raw == wire for frames sent raw.
func (s *ConnStats) AddWireBytes(raw, wire int64) {
	if s == nil {
		return
	}
	s.wireRaw.Add(raw)
	s.wire.Add(wire)
}

// WireBytes returns the on-wire byte count (0 on channel transports).
func (s *ConnStats) WireBytes() int64 { return s.wire.Load() }

// WireRawBytes returns what the connector's socket traffic would have
// cost uncompressed (0 on channel transports).
func (s *ConnStats) WireRawBytes() int64 { return s.wireRaw.Load() }

// Open takes a pooled frame per consumer partition. A sender a Plan
// re-aims at every round keeps its slices from round to round.
func (s *partitionSender) Open() error {
	if len(s.bufs) != len(s.ports) {
		s.bufs = make([]*tuple.Frame, len(s.ports))
		s.apps = make([]tuple.FrameAppender, len(s.ports))
	}
	for i := range s.bufs {
		s.bufs[i] = tuple.GetFrame()
		s.apps[i].Reset(s.bufs[i])
	}
	return nil
}

func (s *partitionSender) NextFrame(f *tuple.Frame) error {
	n := len(s.ports)
	for i := 0; i < f.Len(); i++ {
		r := f.Tuple(i)
		p := 0
		if s.part != nil {
			p = s.part(r, n)
		}
		if p < 0 || p >= n {
			return fmt.Errorf("connector: partitioner returned %d of %d", p, n)
		}
		if s.apps[p].AppendRef(r) {
			continue
		}
		if err := s.flush(p); err != nil {
			return err
		}
		if !s.apps[p].AppendRef(r) {
			return fmt.Errorf("connector: tuple does not fit an empty frame")
		}
	}
	return nil
}

// flush hands the partition's frame to the consumer (ownership transfers
// with the packet) and takes a fresh pooled frame for refilling.
func (s *partitionSender) flush(p int) error {
	f := s.bufs[p]
	if f.Len() == 0 {
		return nil
	}
	s.stats.add(f.Len(), f.DataBytes())
	if err := s.ports[p].Send(s.ctx, Packet{Frame: f}); err != nil {
		return err
	}
	s.bufs[p] = tuple.GetFrame()
	s.apps[p].Reset(s.bufs[p])
	return nil
}

// releaseBufs returns unsent frames to the pool (idempotent).
func (s *partitionSender) releaseBufs() {
	for i, f := range s.bufs {
		if f != nil {
			tuple.PutFrame(f)
			s.bufs[i] = nil
		}
	}
}

func (s *partitionSender) Close() error {
	defer s.releaseBufs()
	for p := range s.ports {
		if err := s.flush(p); err != nil {
			return err
		}
		if err := s.ports[p].Send(s.ctx, Packet{EOS: true}); err != nil {
			return err
		}
	}
	return nil
}

func (s *partitionSender) Fail(err error) {
	s.releaseBufs()
	for p := range s.ports {
		// Best effort: the job context is being cancelled anyway.
		s.ports[p].TrySendErr(err)
	}
}

// materializingWriter implements the sender-side materializing pipelined
// policy: frames are spooled to a node-local temp file while a pump
// goroutine forwards them to the wrapped writer.
type materializingWriter struct {
	ctx       context.Context
	node      *NodeController
	path      string
	inner     FrameWriter
	ioCounter *atomic.Int64 // owning job's I/O counter (may be nil)

	sp      *spool
	done    chan struct{}
	pumpErr error
}

func newMaterializingWriter(ctx context.Context, node *NodeController, path string, ioCounter *atomic.Int64, inner FrameWriter) *materializingWriter {
	return &materializingWriter{ctx: ctx, node: node, path: path, ioCounter: ioCounter, inner: inner}
}

// addIO attributes spool I/O to the machine and the owning job.
func (m *materializingWriter) addIO(n int64) {
	m.node.AddIOBytes(n)
	if m.ioCounter != nil {
		m.ioCounter.Add(n)
	}
}

func (m *materializingWriter) Open() error {
	sp, err := newSpool(m.path)
	if err != nil {
		return err
	}
	m.sp = sp
	m.done = make(chan struct{})
	go m.pump()
	return nil
}

func (m *materializingWriter) pump() {
	defer close(m.done)
	if err := m.inner.Open(); err != nil {
		m.pumpErr = err
		return
	}
	r, err := m.sp.newReader()
	if err != nil {
		m.pumpErr = err
		m.inner.Fail(err)
		return
	}
	defer r.close()
	for {
		select {
		case <-m.ctx.Done():
			m.pumpErr = m.ctx.Err()
			m.inner.Fail(m.pumpErr)
			return
		default:
		}
		f, err := r.next()
		if err == io.EOF {
			m.pumpErr = m.inner.Close()
			return
		}
		if err != nil {
			m.pumpErr = err
			m.inner.Fail(err)
			return
		}
		m.addIO(int64(f.DataBytes()))
		err = m.inner.NextFrame(f)
		tuple.PutFrame(f)
		if err != nil {
			m.pumpErr = err
			m.inner.Fail(err)
			return
		}
	}
}

func (m *materializingWriter) NextFrame(f *tuple.Frame) error {
	m.addIO(int64(f.DataBytes()))
	return m.sp.writeFrame(f)
}

func (m *materializingWriter) Close() error {
	m.sp.closeWrite(nil)
	<-m.done
	m.sp.remove()
	return m.pumpErr
}

func (m *materializingWriter) Fail(err error) {
	m.sp.closeWrite(err)
	<-m.done
	m.sp.remove()
}

// runPlainReceiver drains the receiver partition's shared port into the
// consumer runtime, waiting for one EOS per sender. Frames are returned
// to the pool once the consumer's NextFrame (which copies anything it
// keeps) returns.
func runPlainReceiver(ctx context.Context, rt PushRuntime, port RecvPort, senders int) error {
	if err := rt.Open(); err != nil {
		rt.Fail(err)
		return err
	}
	remaining := senders
	for remaining > 0 {
		pkt, err := port.Recv(ctx)
		if err != nil {
			rt.Fail(err)
			return err
		}
		switch {
		case pkt.Err != nil:
			rt.Fail(pkt.Err)
			return pkt.Err
		case pkt.EOS:
			remaining--
		default:
			err := rt.NextFrame(pkt.Frame)
			tuple.PutFrame(pkt.Frame)
			if err != nil {
				rt.Fail(err)
				return err
			}
		}
	}
	return rt.Close()
}

// senderStream adapts one sender's receive port into a pull iterator over
// tuple refs for the merging receiver. The ref returned by advance stays
// valid until the next advance call (the current frame is only released
// when replaced).
type senderStream struct {
	port RecvPort
	cur  *tuple.Frame
	idx  int
	eos  bool
}

func (s *senderStream) release() {
	if s.cur != nil {
		tuple.PutFrame(s.cur)
		s.cur = nil
	}
}

// advance positions the stream at its next tuple; ok=false at EOS.
func (s *senderStream) advance(ctx context.Context) (tuple.TupleRef, bool, error) {
	for {
		if s.eos {
			return tuple.TupleRef{}, false, nil
		}
		if s.cur != nil && s.idx < s.cur.Len() {
			r := s.cur.Tuple(s.idx)
			s.idx++
			return r, true, nil
		}
		pkt, err := s.port.Recv(ctx)
		if err != nil {
			return tuple.TupleRef{}, false, err
		}
		if pkt.Err != nil {
			s.release()
			return tuple.TupleRef{}, false, pkt.Err
		}
		if pkt.EOS {
			s.release()
			s.eos = true
			return tuple.TupleRef{}, false, nil
		}
		s.release()
		s.cur, s.idx = pkt.Frame, 0
	}
}

type mergeItem struct {
	r      tuple.TupleRef
	stream *senderStream
}

type mergeHeap struct {
	items []mergeItem
	cmp   tuple.RefComparator
}

func (h *mergeHeap) Len() int           { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool { return h.cmp(h.items[i].r, h.items[j].r) < 0 }
func (h *mergeHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)         { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// runMergingReceiver merges the sorted per-sender streams by cmp and
// feeds the consumer runtime a globally sorted stream. This is the
// receiver side of the m-to-n partitioning merging connector: it waits
// selectively on specific senders as dictated by the priority queue,
// which is why the sender side must materialize (Section 5.3.1). The
// merge operates on frame refs: each winning record is copied into the
// output frame with one memmove before its stream advances.
func runMergingReceiver(ctx context.Context, rt PushRuntime, ports []RecvPort, cmp tuple.RefComparator) error {
	if err := rt.Open(); err != nil {
		rt.Fail(err)
		return err
	}
	streams := make([]*senderStream, 0, len(ports))
	defer func() {
		for _, s := range streams {
			s.release()
		}
	}()
	h := &mergeHeap{cmp: cmp}
	for _, port := range ports {
		s := &senderStream{port: port}
		streams = append(streams, s)
		r, ok, err := s.advance(ctx)
		if err != nil {
			rt.Fail(err)
			return err
		}
		if ok {
			h.items = append(h.items, mergeItem{r, s})
		}
	}
	heap.Init(h)
	out := tuple.GetFrame()
	defer tuple.PutFrame(out)
	app := tuple.NewFrameAppender(out)
	for h.Len() > 0 {
		item := h.items[0]
		// Copy the winning record before advancing its stream (advance
		// may replace the frame the ref points into).
		if !app.AppendRef(item.r) {
			if err := rt.NextFrame(out); err != nil {
				rt.Fail(err)
				return err
			}
			out.Reset()
			app.AppendRef(item.r)
		}
		r, ok, err := item.stream.advance(ctx)
		if err != nil {
			rt.Fail(err)
			return err
		}
		if ok {
			h.items[0] = mergeItem{r, item.stream}
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	if out.Len() > 0 {
		if err := rt.NextFrame(out); err != nil {
			rt.Fail(err)
			return err
		}
	}
	return rt.Close()
}
