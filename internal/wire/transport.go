package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"strings"
	"sync"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// ErrStreamReset is the failure a sender observes when the receiving
// process tears a stream down (job finished or failed remotely).
var ErrStreamReset = errors.New("wire: stream reset by receiver")

// errTransportClosed fails in-flight streams when the transport shuts down.
var errTransportClosed = errors.New("wire: transport closed")

// Config describes one process's slice of the cluster to the transport.
type Config struct {
	// ListenAddr is the data-plane listen address ("" = rely on the
	// listener created by Listen).
	ListenAddr string
	// Local is the set of nodes hosted by this process.
	Local map[hyracks.NodeID]bool
	// Peers maps every cluster node to the data-plane address of the
	// process hosting it. Local nodes may be omitted.
	Peers map[hyracks.NodeID]string
	// ForceWire routes even local→local streams through the loopback
	// socket. Used by parity tests and benchmarks to exercise the full
	// wire path in one process.
	ForceWire bool
	// Compress is the encoding policy of the DATA frames this process
	// sends. Only the sender reads it: every DATA frame names its own
	// encoding and receivers decode them all, so processes with
	// different policies interoperate. The zero value is CompressOff.
	Compress tuple.CompressMode
}

// TCPTransport implements hyracks.Transport over TCP: per-(connector,
// sender→receiver partition) streams multiplexed over one connection per
// destination process, credit-based backpressure, and in-band EOS/ERR.
// Streams between two tasks of the same process bypass the socket and
// use bounded channels (unless Config.ForceWire).
type TCPTransport struct {
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	dialed   map[string]*sendConn      // by destination address
	accepted map[net.Conn]bool         // inbound data connections
	regs     map[regKey]*recvReg       // registered connectors
	pending  map[streamKey]*recvStream // streams opened before registration
	closed   bool
	wg       sync.WaitGroup
}

type regKey struct{ job, conn string }

type streamKey struct {
	job, conn        string
	sender, receiver int
}

// NewTCPTransport starts a transport listening on cfg.ListenAddr (the
// address may use port 0; Addr reports the bound address).
func NewTCPTransport(cfg Config) (*TCPTransport, error) {
	t := &TCPTransport{
		cfg:      cfg,
		dialed:   make(map[string]*sendConn),
		accepted: make(map[net.Conn]bool),
		regs:     make(map[regKey]*recvReg),
		pending:  make(map[streamKey]*recvStream),
	}
	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, err
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	return t, nil
}

// Addr returns the bound data-plane address ("" without a listener).
func (t *TCPTransport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// SetPeers installs the node→address routing table (handshake result).
func (t *TCPTransport) SetPeers(peers map[hyracks.NodeID]string, local map[hyracks.NodeID]bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.Peers = peers
	t.cfg.Local = local
}

// Close shuts the transport down: the listener stops, every connection
// closes, and blocked senders fail.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := slices.Collect(maps.Values(t.dialed))
	inbound := slices.Collect(maps.Keys(t.accepted))
	regs := slices.Collect(maps.Values(t.regs))
	t.mu.Unlock()

	for _, r := range regs {
		r.close(false)
	}
	for _, c := range conns {
		c.fail(errTransportClosed)
	}
	for _, c := range inbound {
		c.Close()
	}
	if t.ln != nil {
		t.ln.Close()
	}
	t.wg.Wait()
	// No demultiplexer is left to deliver: release what parked streams
	// still hold.
	t.mu.Lock()
	parked := slices.Collect(maps.Values(t.pending))
	t.mu.Unlock()
	for _, st := range parked {
		st.shutdown(false)
	}
	return nil
}

// remote reports whether sends to the given node leave this process.
func (t *TCPTransport) remote(id hyracks.NodeID) bool {
	return t.cfg.ForceWire || !t.cfg.Local[id]
}

// PurgeJob drops parked streams belonging to the named job: streams
// opened by remote senders that this process never claimed (e.g. the
// job failed before the local executor registered the connector). Their
// senders get a RESET so they unblock instead of waiting for credits
// forever. Workers call it when a job ends. Phase executions are named
// "<job>-<phase>", so the match is the exact name or that shape — a
// bare-prefix match would let "pr@j1" purge "pr@j10"'s streams.
func (t *TCPTransport) PurgeJob(job string) {
	t.mu.Lock()
	var stale []*recvStream
	for k, st := range t.pending {
		if k.job == job || strings.HasPrefix(k.job, job+"-") {
			delete(t.pending, k)
			stale = append(stale, st)
		}
	}
	t.mu.Unlock()
	for _, st := range stale {
		st.shutdown(true)
	}
}

// ---------------------------------------------------------------------------
// hyracks.Transport implementation.
// ---------------------------------------------------------------------------

// OpenConn allocates the connector's local receive queues, registers
// them with the demultiplexer so peer processes can reach them, and
// claims any streams that were opened before this call.
func (t *TCPTransport) OpenConn(p hyracks.ConnPlacement) (hyracks.ConnTransport, error) {
	reg := &recvReg{t: t, p: p, done: make(chan struct{})}
	key := regKey{p.ID.Job, p.ID.Conn}

	if p.Merging {
		reg.merge = make(map[[2]int]chan hyracks.Packet)
	} else {
		reg.plain = make(map[int]chan hyracks.Packet)
	}
	reg.streams = make(map[[2]int]*recvStream)
	for r := 0; r < p.Receivers; r++ {
		if !t.cfg.Local[p.ReceiverNodes[r]] {
			continue // receiver hosted elsewhere; its process registers it
		}
		if !p.Merging {
			reg.plain[r] = make(chan hyracks.Packet, p.BufferFrames)
		}
		for s := 0; s < p.Senders; s++ {
			if p.Merging {
				reg.merge[[2]int{s, r}] = make(chan hyracks.Packet, p.BufferFrames)
			}
			if t.remote(p.SenderNodes[s]) {
				st := newRecvStream(reg, streamKey{p.ID.Job, p.ID.Conn, s, r}, p.BufferFrames)
				reg.streams[[2]int{s, r}] = st
			}
		}
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errTransportClosed
	}
	if _, dup := t.regs[key]; dup {
		t.mu.Unlock()
		return nil, fmt.Errorf("wire: connector %s/%s registered twice", key.job, key.conn)
	}
	t.regs[key] = reg
	// Claim streams whose OPEN raced ahead of this registration: the
	// parked shell (already bound to its connection, possibly holding an
	// early EOS/ERR in its inbox) replaces the placeholder.
	var claims []*recvStream
	for k, st := range reg.streams {
		if pend, ok := t.pending[st.key]; ok {
			delete(t.pending, st.key)
			pend.setReg(reg)
			reg.streams[k] = pend
			claims = append(claims, pend)
		}
	}
	t.mu.Unlock()

	for _, pend := range claims {
		pend.grantInitial()
	}
	// Start plain forwarders for every expected remote stream.
	if !p.Merging {
		for _, st := range reg.streams {
			reg.fwdWG.Add(1)
			go st.forwardPlain()
		}
	}
	return &wireConn{t: t, reg: reg}, nil
}

// wireConn is one connector's transport state.
type wireConn struct {
	t   *TCPTransport
	reg *recvReg
}

func (c *wireConn) SendPort(s, r int) hyracks.SendPort {
	p := c.reg.p
	if !c.t.remote(p.ReceiverNodes[r]) {
		if p.Merging {
			return hyracks.ChanPort{Ch: c.reg.merge[[2]int{s, r}]}
		}
		return hyracks.ChanPort{Ch: c.reg.plain[r]}
	}
	return &wireSendPort{
		t:     c.t,
		addr:  c.t.cfg.Peers[p.ReceiverNodes[r]],
		info:  openInfo{Job: p.ID.Job, Conn: p.ID.Conn, Sender: s, Receiver: r, Buffer: p.BufferFrames},
		stats: p.Stats,
	}
}

func (c *wireConn) RecvPlain(r int) hyracks.RecvPort {
	return hyracks.ChanPort{Ch: c.reg.plain[r]}
}

func (c *wireConn) RecvMerge(s, r int) hyracks.RecvPort {
	if st := c.reg.streams[[2]int{s, r}]; st != nil {
		return &streamRecvPort{st: st}
	}
	return hyracks.ChanPort{Ch: c.reg.merge[[2]int{s, r}]}
}

func (c *wireConn) Close() {
	c.t.mu.Lock()
	delete(c.t.regs, regKey{c.reg.p.ID.Job, c.reg.p.ID.Conn})
	c.t.mu.Unlock()
	c.reg.close(true)
}

// ---------------------------------------------------------------------------
// Receiver side.
// ---------------------------------------------------------------------------

// recvReg is the receiving state of one registered connector.
type recvReg struct {
	t *TCPTransport
	p hyracks.ConnPlacement

	// plain: shared queue per local receiver partition. merge: one queue
	// per (sender, receiver) with a local sender.
	plain map[int]chan hyracks.Packet
	merge map[[2]int]chan hyracks.Packet
	// streams holds the pre-allocated receive state of every expected
	// remote stream, keyed by (sender, receiver).
	streams map[[2]int]*recvStream

	done      chan struct{}
	closeOnce sync.Once
	// fwdWG tracks plain forwarders; close drains the shared queues only
	// after they have exited, so a drain never races an enqueue.
	fwdWG sync.WaitGroup
}

// close tears the registration down: forwarders stop, any frame still
// queued returns to the pool, and remote senders of unfinished streams
// get a RESET so they fail fast instead of blocking on credits. The
// executor calls it only after every local task has exited, so once the
// streams are shut down and the forwarders have drained out, nothing
// can enqueue concurrently with the final sweep.
func (r *recvReg) close(reset bool) {
	r.closeOnce.Do(func() {
		close(r.done)
		for _, st := range r.streams {
			st.shutdown(reset)
		}
		r.fwdWG.Wait()
		for _, ch := range r.plain {
			hyracks.DrainPackets(ch)
		}
		for _, ch := range r.merge {
			hyracks.DrainPackets(ch)
		}
	})
}

// recvStream is the receiver-side state of one wire stream.
type recvStream struct {
	key    streamKey
	buffer int

	// inbox is fed by the connection demultiplexer. Its capacity covers
	// the whole credit window plus the creditless EOS/ERR, so the demux
	// never blocks on it.
	inbox chan hyracks.Packet
	done  chan struct{}

	mu       sync.Mutex
	reg      *recvReg    // set at creation, or at claim for parked shells
	conn     *acceptConn // bound on OPEN
	id       uint32
	granted  bool // initial window granted
	complete bool // EOS or ERR seen
	closed   bool
}

func newRecvStream(reg *recvReg, key streamKey, buffer int) *recvStream {
	return &recvStream{
		key:    key,
		reg:    reg,
		buffer: buffer,
		inbox:  make(chan hyracks.Packet, buffer+4),
		done:   make(chan struct{}),
	}
}

func (s *recvStream) setReg(r *recvReg) {
	s.mu.Lock()
	s.reg = r
	s.mu.Unlock()
}

// bind attaches the stream to the connection it was opened on.
func (s *recvStream) bind(c *acceptConn, id uint32) {
	s.mu.Lock()
	s.conn = c
	s.id = id
	s.mu.Unlock()
	s.grantInitial()
}

// grantInitial opens the credit window once the stream is both bound to
// a connection and claimed by a registration — bind and claim race, so
// both call it and exactly one grant goes out.
func (s *recvStream) grantInitial() {
	s.mu.Lock()
	if s.granted || s.conn == nil || s.reg == nil {
		s.mu.Unlock()
		return
	}
	s.granted = true
	conn, id, n := s.conn, s.id, s.buffer
	s.mu.Unlock()
	conn.sendCredit(id, uint32(n))
}

// credit returns one consumed frame's worth of window to the sender.
func (s *recvStream) credit() {
	s.mu.Lock()
	conn, id := s.conn, s.id
	closed := s.closed || s.complete
	s.mu.Unlock()
	if conn != nil && !closed {
		conn.sendCredit(id, 1)
	}
}

// deliver enqueues a demultiplexed packet. The enqueue happens under
// the stream mutex that shutdown also takes, so a packet either lands
// in the inbox before shutdown's drain or is dropped and its frame
// returned to the pool — never enqueued after the drain. The inbox
// never blocks by the credit invariant; the default arm is the
// defensive escape if a peer violates it.
func (s *recvStream) deliver(pkt hyracks.Packet) {
	s.mu.Lock()
	if pkt.EOS || pkt.Err != nil {
		s.complete = true
	}
	if s.closed {
		s.mu.Unlock()
		if pkt.Frame != nil {
			tuple.PutFrame(pkt.Frame)
		}
		return
	}
	select {
	case s.inbox <- pkt:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		if pkt.Frame != nil {
			tuple.PutFrame(pkt.Frame)
		}
	}
}

// forwardPlain moves packets from the stream inbox into the receiver
// partition's shared queue (plain connectors interleave every sender on
// one queue), granting a credit per data frame moved.
func (s *recvStream) forwardPlain() {
	defer s.reg.fwdWG.Done()
	out := s.reg.plain[s.key.receiver]
	for {
		select {
		case <-s.reg.done:
			return
		case pkt := <-s.inbox:
			select {
			case out <- pkt:
			case <-s.reg.done:
				if pkt.Frame != nil {
					tuple.PutFrame(pkt.Frame)
				}
				return
			}
			if pkt.Frame != nil {
				s.credit()
			}
			if pkt.EOS || pkt.Err != nil {
				return
			}
		}
	}
}

// shutdown stops the stream; unfinished remote senders get a RESET.
// Setting closed under the mutex fences deliver: no packet can land in
// the inbox after the drain below.
func (s *recvStream) shutdown(reset bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conn, id := s.conn, s.id
	needReset := reset && conn != nil && !s.complete
	s.mu.Unlock()
	close(s.done)
	// Return any frames still parked in the inbox to the pool. A plain
	// forwarder may be consuming concurrently; both drains release to
	// the pool, so either taker is fine.
	for {
		select {
		case pkt := <-s.inbox:
			if pkt.Frame != nil {
				tuple.PutFrame(pkt.Frame)
			}
		default:
			if needReset {
				conn.sendReset(id)
			}
			return
		}
	}
}

// streamRecvPort reads one remote stream directly (merging receivers),
// granting a credit per consumed frame.
type streamRecvPort struct{ st *recvStream }

func (p *streamRecvPort) Recv(ctx context.Context) (hyracks.Packet, error) {
	select {
	case pkt := <-p.st.inbox:
		if pkt.Frame != nil {
			p.st.credit()
		}
		return pkt, nil
	case <-ctx.Done():
		return hyracks.Packet{}, ctx.Err()
	}
}

// ---------------------------------------------------------------------------
// Accepted (inbound) connections: the demultiplexer.
// ---------------------------------------------------------------------------

type acceptConn struct {
	t    *TCPTransport
	conn net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
	// dec decodes DATA payloads; only the connection's single
	// demultiplexer goroutine touches it.
	dec tuple.FrameDecoder

	mu      sync.Mutex
	streams map[uint32]*recvStream
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go t.serveData(conn)
	}
}

// serveData demultiplexes one inbound data connection.
func (t *TCPTransport) serveData(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.accepted[conn] = true
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	magic := make([]byte, len(dataMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != dataMagic {
		return
	}
	ac := &acceptConn{t: t, conn: conn, bw: bufio.NewWriterSize(conn, 4<<10), streams: make(map[uint32]*recvStream)}
	for {
		h, err := readHeader(br)
		if err != nil {
			return
		}
		switch h.typ {
		case msgOpen:
			payload, err := readPayload(br, h.length)
			if err != nil {
				return
			}
			var info openInfo
			if err := json.Unmarshal(payload, &info); err != nil || info.Buffer < 1 || info.Buffer > maxStreamBuffer {
				return
			}
			t.bindIncoming(ac, h.stream, info)
		case msgData:
			st := ac.stream(h.stream)
			if st == nil {
				// Stream already finished or never bound here: skip the body.
				if _, err := io.CopyN(io.Discard, br, int64(h.length)); err != nil {
					return
				}
				continue
			}
			f, err := readData(br, h.length, &ac.dec)
			if err != nil {
				return
			}
			st.deliver(hyracks.Packet{Frame: f})
		case msgEOS:
			if h.length != 0 {
				return
			}
			if st := ac.take(h.stream); st != nil {
				st.deliver(hyracks.Packet{EOS: true})
			}
		case msgErr:
			payload, err := readPayload(br, h.length)
			if err != nil {
				return
			}
			if st := ac.take(h.stream); st != nil {
				st.deliver(hyracks.Packet{Err: errors.New(string(payload))})
			}
		default:
			return // protocol error: drop the connection
		}
	}
}

// bindIncoming routes a fresh OPEN to its registration, or parks the
// stream until the local OpenConn arrives.
func (t *TCPTransport) bindIncoming(ac *acceptConn, id uint32, info openInfo) {
	key := streamKey{info.Job, info.Conn, info.Sender, info.Receiver}
	t.mu.Lock()
	reg := t.regs[regKey{info.Job, info.Conn}]
	var st, stale *recvStream
	if reg != nil {
		st = reg.streams[[2]int{info.Sender, info.Receiver}]
	}
	if st == nil {
		// Opened before registration (or for an unknown endpoint): park a
		// shell; OpenConn claims it by key. A shell already parked under
		// the key is superseded, and shut down so its frames return.
		stale = t.pending[key]
		st = newRecvStream(nil, key, info.Buffer)
		t.pending[key] = st
	}
	t.mu.Unlock()
	if stale != nil {
		stale.shutdown(true)
	}
	ac.mu.Lock()
	ac.streams[id] = st
	ac.mu.Unlock()
	st.bind(ac, id)
}

func (ac *acceptConn) stream(id uint32) *recvStream {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.streams[id]
}

// take looks a stream up and forgets it (terminal EOS/ERR messages).
func (ac *acceptConn) take(id uint32) *recvStream {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	st := ac.streams[id]
	delete(ac.streams, id)
	return st
}

func (ac *acceptConn) sendCredit(id uint32, n uint32) {
	var payload [4]byte
	binary.LittleEndian.PutUint32(payload[:], n)
	ac.wmu.Lock()
	defer ac.wmu.Unlock()
	writeMsg(ac.bw, msgCredit, id, payload[:]) // conn errors surface on the sender side
}

func (ac *acceptConn) sendReset(id uint32) {
	ac.wmu.Lock()
	defer ac.wmu.Unlock()
	writeMsg(ac.bw, msgReset, id, nil)
}

// ---------------------------------------------------------------------------
// Sender side.
// ---------------------------------------------------------------------------

// sendConn is one outbound connection to a destination process.
type sendConn struct {
	t    *TCPTransport
	addr string
	conn net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
	// enc encodes DATA frames under the process's policy; guarded by
	// wmu like the write buffer it feeds.
	enc *tuple.FrameEncoder

	mu      sync.Mutex
	next    uint32
	streams map[uint32]*sendStream
	err     error
}

// conn returns (dialing on first use) the connection to addr.
func (t *TCPTransport) connTo(addr string) (*sendConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errTransportClosed
	}
	if c := t.dialed[addr]; c != nil {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c := &sendConn{
		t:       t,
		addr:    addr,
		conn:    nc,
		bw:      bufio.NewWriterSize(nc, 64<<10),
		enc:     tuple.NewFrameEncoder(t.cfg.Compress),
		streams: make(map[uint32]*sendStream),
	}
	if _, err := nc.Write([]byte(dataMagic)); err != nil {
		nc.Close()
		return nil, err
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		nc.Close()
		return nil, errTransportClosed
	}
	if race := t.dialed[addr]; race != nil {
		t.mu.Unlock()
		nc.Close()
		return race, nil
	}
	t.dialed[addr] = c
	t.mu.Unlock()

	t.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// flushDialed pushes the buffered DATA frames of every outbound
// connection to the kernel. A sender calls it before parking on
// credits: its own unflushed frames may be exactly what some receiver
// is waiting on — possibly on a different connection than the one the
// sender is blocked on — so the barrier covers them all. Everywhere
// else the write buffer drains on control messages (OPEN/EOS/ERR
// flush) or on buffer pressure.
func (t *TCPTransport) flushDialed() {
	t.mu.Lock()
	conns := slices.Collect(maps.Values(t.dialed))
	t.mu.Unlock()
	for _, c := range conns {
		c.flush()
	}
}

// flush drains the connection's write buffer.
func (c *sendConn) flush() {
	c.wmu.Lock()
	err := c.bw.Flush()
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
	}
}

// readLoop processes the receiver→sender direction: credits and resets.
func (c *sendConn) readLoop() {
	defer c.t.wg.Done()
	br := bufio.NewReaderSize(c.conn, 4<<10)
	for {
		h, err := readHeader(br)
		if err != nil {
			c.fail(fmt.Errorf("wire: connection to %s lost: %w", c.addr, err))
			return
		}
		switch {
		case h.typ == msgCredit && h.length == 4:
			var n [4]byte
			if _, err := io.ReadFull(br, n[:]); err != nil {
				c.fail(fmt.Errorf("wire: connection to %s lost: %w", c.addr, err))
				return
			}
			if st := c.stream(h.stream); st != nil {
				st.grant(int(binary.LittleEndian.Uint32(n[:])))
			}
		case h.typ == msgReset && h.length == 0:
			if st := c.stream(h.stream); st != nil {
				st.fail(ErrStreamReset)
			}
		default:
			c.fail(fmt.Errorf("wire: protocol error from %s (type %d, %d bytes)", c.addr, h.typ, h.length))
			return
		}
	}
}

func (c *sendConn) stream(id uint32) *sendStream {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams[id]
}

// fail poisons the connection and every stream on it.
func (c *sendConn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	streams := slices.Collect(maps.Values(c.streams))
	c.mu.Unlock()
	c.t.mu.Lock()
	if c.t.dialed[c.addr] == c {
		delete(c.t.dialed, c.addr)
	}
	c.t.mu.Unlock()
	for _, st := range streams {
		st.fail(err)
	}
	c.conn.Close()
}

// open allocates a stream id and announces the stream.
func (c *sendConn) open(info openInfo) (*sendStream, error) {
	payload, err := json.Marshal(info)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.next++
	st := &sendStream{c: c, id: c.next, wait: make(chan struct{})}
	c.streams[st.id] = st
	c.mu.Unlock()

	c.wmu.Lock()
	err = writeMsg(c.bw, msgOpen, st.id, payload)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
		return nil, err
	}
	return st, nil
}

// sendStream is the sender-side state of one wire stream.
type sendStream struct {
	c  *sendConn
	id uint32

	mu      sync.Mutex
	credits int
	failed  error
	wait    chan struct{} // closed and replaced on every grant/failure
}

func (s *sendStream) grant(n int) {
	s.mu.Lock()
	s.credits += n
	close(s.wait)
	s.wait = make(chan struct{})
	s.mu.Unlock()
}

func (s *sendStream) fail(err error) {
	s.mu.Lock()
	if s.failed == nil {
		s.failed = err
	}
	close(s.wait)
	s.wait = make(chan struct{})
	s.mu.Unlock()
}

// tryAcquire takes one send credit if immediately available. The fast
// path of Send: no credit means the sender is about to block, which is
// when buffered frames must be flushed.
func (s *sendStream) tryAcquire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil || s.credits <= 0 {
		return false
	}
	s.credits--
	return true
}

// acquire blocks until one send credit is available.
func (s *sendStream) acquire(ctx context.Context) error {
	s.mu.Lock()
	for {
		if s.failed != nil {
			err := s.failed
			s.mu.Unlock()
			return err
		}
		if s.credits > 0 {
			s.credits--
			s.mu.Unlock()
			return nil
		}
		ch := s.wait
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
		s.mu.Lock()
	}
}

// finish forgets the stream after its terminal message.
func (s *sendStream) finish() {
	s.c.mu.Lock()
	delete(s.c.streams, s.id)
	s.c.mu.Unlock()
}

// wireSendPort is the hyracks.SendPort of one remote stream. The stream
// opens lazily on first use, so connectors that never ship a frame to a
// given partition still pay one OPEN (sent with their EOS).
type wireSendPort struct {
	t    *TCPTransport
	addr string
	info openInfo
	// stats, when set, accumulates the stream's on-wire DATA bytes
	// (post-compression, headers included) next to the connector's
	// payload counters.
	stats *hyracks.ConnStats

	once sync.Once
	st   *sendStream
	err  error
}

func (p *wireSendPort) ensure() (*sendStream, error) {
	p.once.Do(func() {
		c, err := p.t.connTo(p.addr)
		if err != nil {
			p.err = err
			return
		}
		p.st, p.err = c.open(p.info)
	})
	return p.st, p.err
}

func (p *wireSendPort) Send(ctx context.Context, pkt hyracks.Packet) error {
	st, err := p.ensure()
	if err != nil {
		return err
	}
	if pkt.Err != nil {
		return p.sendErr(st, pkt.Err)
	}
	if pkt.EOS {
		st.c.wmu.Lock()
		err := writeMsg(st.c.bw, msgEOS, st.id, nil)
		st.c.wmu.Unlock()
		st.finish()
		if err != nil {
			st.c.fail(err)
			return err
		}
		return nil
	}
	// DATA: one credit per frame in flight. Out of credits means this
	// sender is about to block — flush buffered frames everywhere first
	// so no receiver waits on bytes parked in a write buffer.
	if !st.tryAcquire() {
		p.t.flushDialed()
		if err := st.acquire(ctx); err != nil {
			return err
		}
	}
	st.c.wmu.Lock()
	n, err := writeData(st.c.bw, st.id, pkt.Frame, st.c.enc)
	st.c.wmu.Unlock()
	if err != nil {
		st.c.fail(err)
		return err
	}
	if p.stats != nil {
		// The uncompressed cost is the same message tagged EncRaw.
		p.stats.AddWireBytes(int64(9+1+pkt.Frame.FrameImageSize()), int64(n))
	}
	// The frame's bytes are on the wire; ownership returns to the pool.
	tuple.PutFrame(pkt.Frame)
	return nil
}

func (p *wireSendPort) sendErr(st *sendStream, failure error) error {
	st.c.wmu.Lock()
	err := writeMsg(st.c.bw, msgErr, st.id, []byte(failure.Error()))
	st.c.wmu.Unlock()
	st.finish()
	if err != nil {
		st.c.fail(err)
		return err
	}
	return nil
}

// TrySendErr propagates a producer failure without blocking: the socket
// write happens on a separate goroutine (ERR consumes no credit, and the
// receiving demultiplexer always drains, so the write completes as soon
// as the kernel buffers allow).
func (p *wireSendPort) TrySendErr(err error) {
	st, oerr := p.ensure()
	if oerr != nil {
		return
	}
	go p.sendErr(st, err)
}
