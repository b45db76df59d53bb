package hyracks

import (
	"context"

	"pregelix/internal/tuple"
)

// Packet is the unit moved through a connector stream: a data frame, an
// end-of-stream marker, or an error. Frame ownership transfers with the
// packet — the receiver returns the frame to the pool (tuple.PutFrame)
// once it has drained it.
type Packet struct {
	Frame *tuple.Frame
	EOS   bool
	Err   error
}

// SendPort is the sender endpoint of one connector stream. Send blocks
// under backpressure (a bounded buffer in process, exhausted credits on
// the wire) until the packet is accepted or ctx ends; frame ownership
// transfers on success. TrySendErr is the best-effort failure
// propagation used by Fail — it must never block.
type SendPort interface {
	Send(ctx context.Context, p Packet) error
	TrySendErr(err error)
}

// RecvPort is the receiver endpoint of one or more connector streams.
// Recv blocks until a packet arrives or ctx ends.
type RecvPort interface {
	Recv(ctx context.Context) (Packet, error)
}

// ConnID names one connector instance of one job execution. Job names
// are unique per execution (the serve tier qualifies each with its
// table id, "<name>@j<id>"), so the pair is a cluster-wide stream-group
// key for wire transports.
type ConnID struct {
	Job  string
	Conn string // connector label "from->to"
}

// ConnPlacement describes the endpoints of one connector so a transport
// can allocate its streams: the fan-in/fan-out, the per-stream frame
// buffer, the receiver layout (merging connectors need per-sender
// queues; plain connectors share one queue per receiver), and the node
// of every endpoint partition so multi-process transports can route.
type ConnPlacement struct {
	ID           ConnID
	Senders      int
	Receivers    int
	BufferFrames int
	// Merging selects per-(sender, receiver) receive queues (the merging
	// receiver waits selectively on specific senders); otherwise every
	// sender funnels into one shared queue per receiver partition.
	Merging bool
	// SenderNodes[i] / ReceiverNodes[i] is the node running partition i
	// of the producer / consumer operator.
	SenderNodes   []NodeID
	ReceiverNodes []NodeID
	// Stats, when set, lets the transport account per-connector on-wire
	// bytes (see ConnStats.AddWireBytes) next to the payload counters
	// the sender endpoints maintain.
	Stats *ConnStats
}

// ConnTransport is the allocated stream set of one connector. SendPort
// returns the endpoint a sender task uses to reach one receiver
// partition; RecvPlain/RecvMerge return the receive endpoints for
// receiver tasks hosted by this process. Close releases transport state
// when the job execution ends (it must release any frames still queued).
type ConnTransport interface {
	SendPort(sender, receiver int) SendPort
	RecvPlain(receiver int) RecvPort
	RecvMerge(sender, receiver int) RecvPort
	Close()
}

// Transport moves frames between connector endpoints. The in-process
// implementation (ChanTransport) is the fast path backing RunJob; wire
// transports route streams between node controllers in different OS
// processes.
type Transport interface {
	OpenConn(p ConnPlacement) (ConnTransport, error)
}

// ExecOptions selects the transport and the locally hosted nodes for a
// job execution. The zero value means "in-process channels, every node
// local" — the single-process mode RunJob uses.
type ExecOptions struct {
	// Transport carries connector streams (nil = ChanTransport).
	Transport Transport
	// LocalNodes is the set of nodes whose tasks this process runs
	// (nil = all). In multi-process mode every participant executes the
	// same job spec with the same schedule and instantiates only its own
	// nodes' tasks; cross-process streams meet on the wire.
	LocalNodes map[NodeID]bool
}

// Local reports whether this process hosts the given node's tasks.
func (o ExecOptions) Local(id NodeID) bool {
	return o.LocalNodes == nil || o.LocalNodes[id]
}

func (o ExecOptions) transport() Transport {
	if o.Transport == nil {
		return ChanTransport{}
	}
	return o.Transport
}

// ---------------------------------------------------------------------------
// In-process channel transport.
// ---------------------------------------------------------------------------

// ChanTransport is the in-process transport: each stream is a bounded Go
// channel, and backpressure is channel blocking. It is the default for
// RunJob and the fast path for tests and single-machine clusters.
type ChanTransport struct{}

// OpenConn allocates the connector's channels.
func (ChanTransport) OpenConn(p ConnPlacement) (ConnTransport, error) {
	c := &chanConn{}
	if p.Merging {
		c.merge = make([][]chan Packet, p.Senders)
		for s := range c.merge {
			c.merge[s] = make([]chan Packet, p.Receivers)
			for r := range c.merge[s] {
				c.merge[s][r] = make(chan Packet, p.BufferFrames)
			}
		}
		return c, nil
	}
	c.plain = make([]chan Packet, p.Receivers)
	for r := range c.plain {
		c.plain[r] = make(chan Packet, p.BufferFrames)
	}
	return c, nil
}

type chanConn struct {
	plain []chan Packet   // per receiver partition (shared by all senders)
	merge [][]chan Packet // [sender][receiver]
}

func (c *chanConn) SendPort(s, r int) SendPort {
	if c.merge != nil {
		return ChanPort{c.merge[s][r]}
	}
	return ChanPort{c.plain[r]}
}

func (c *chanConn) RecvPlain(r int) RecvPort    { return ChanPort{c.plain[r]} }
func (c *chanConn) RecvMerge(s, r int) RecvPort { return ChanPort{c.merge[s][r]} }

// Close returns frames stranded in the channels to the pool. On the
// happy path every channel is already empty; after a failure or a
// cancellation, packets a receiver never drained are still queued. The
// executor closes connectors only after all local tasks have exited, so
// no sender races the drain.
func (c *chanConn) Close() {
	for _, ch := range c.plain {
		DrainPackets(ch)
	}
	for _, row := range c.merge {
		for _, ch := range row {
			DrainPackets(ch)
		}
	}
}

// ChanPort adapts one bounded channel to both stream endpoints. It is
// the whole in-process stream implementation, shared by ChanTransport
// and by wire transports' same-process bypass.
type ChanPort struct{ Ch chan Packet }

func (p ChanPort) Send(ctx context.Context, pkt Packet) error {
	select {
	case p.Ch <- pkt:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TrySendErr drops the error when the channel is full: the job context
// is being cancelled anyway and the receiver will observe that.
func (p ChanPort) TrySendErr(err error) {
	select {
	case p.Ch <- Packet{Err: err}:
	default:
	}
}

func (p ChanPort) Recv(ctx context.Context) (Packet, error) {
	select {
	case pkt := <-p.Ch:
		return pkt, nil
	case <-ctx.Done():
		return Packet{}, ctx.Err()
	}
}

// DrainPackets empties a stream channel without blocking, returning any
// queued frames to the pool. Transports call it at teardown, after all
// producers have stopped.
func DrainPackets(ch chan Packet) {
	for {
		select {
		case pkt := <-ch:
			if pkt.Frame != nil {
				tuple.PutFrame(pkt.Frame)
			}
		default:
			return
		}
	}
}
