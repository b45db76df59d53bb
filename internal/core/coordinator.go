package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pregelix/internal/dfs"
	"pregelix/internal/hyracks"
	"pregelix/internal/wire"
	"pregelix/pregel"
)

// CoordinatorConfig configures the cluster controller of a distributed
// (multi-process) cluster.
type CoordinatorConfig struct {
	// ListenAddr is the control-plane listen address workers dial.
	ListenAddr string
	// Workers is the number of worker processes the cluster waits for.
	Workers int
	// PartitionsPerNode / RAMBytes / PageSize are dictated to every
	// worker so all runtimes agree.
	PartitionsPerNode int
	RAMBytes          int64
	PageSize          int
	// BaseDir roots the coordinator's replicated checkpoint store
	// ("" = a temp dir removed on Close). The store stands in for HDFS:
	// it lives outside every worker process, so a committed checkpoint
	// outlives the worker that wrote it.
	BaseDir string
	// StateDir, when set, makes the coordinator itself durable and
	// restartable: the checkpoint store roots here with a persistent
	// DFS namespace (so committed manifests AND the delta journal
	// survive the coordinator process), and the sealed-version catalog
	// is persisted beside it. A coordinator restarted against the same
	// StateDir re-adopts rejoining workers — their registration
	// handshakes report the sealed query versions they still hold — and
	// in-flight jobs resume from the last committed checkpoint manifest
	// (DistSubmission.Resume). Overrides BaseDir; never removed on
	// Close.
	StateDir string
	// HeartbeatInterval is the liveness-probe period (default 2s); a
	// worker that misses HeartbeatMisses consecutive probes (default 3)
	// is declared dead even if its TCP connection still looks open.
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// ReplaceWait bounds how long failure recovery waits for a standby
	// `pregelix worker` to adopt the dead worker's nodes before
	// redistributing them over the survivors (default 0: redistribute
	// immediately unless a standby is already parked).
	ReplaceWait time.Duration
	// Adaptive configures the runtime-stats feedback loop (adaptive.go):
	// hot-partition splitting and straggler relief. Disabled by default.
	Adaptive AdaptiveOptions
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *CoordinatorConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// ccWorker is the controller's handle on one registered worker.
type ccWorker struct {
	ctrl     *wire.ControlConn
	caller   *wire.Caller
	dataAddr string
	owned    []string
	regID    int64
	// elastic marks a parked joiner that asked for a rebalance (scale-
	// out) rather than passive standby duty.
	elastic bool
	// draining marks an active worker whose graceful departure is
	// pending: the next rebalance point migrates its partitions out and
	// releases it.
	draining atomic.Bool
	// inflight counts outstanding non-heartbeat RPCs. While it is
	// non-zero the heartbeat monitor does not count misses: a checkpoint
	// or restore ships whole partition images as the attachments of one
	// frame on this same connection, and a probe parked behind one is
	// latency, not death (a real crash still fails the connection
	// instantly).
	inflight atomic.Int64
	// lostRecorded dedups the worker-lost recovery event between the
	// heartbeat monitor and reapDead.
	lostRecorded atomic.Bool
	// sealed holds the sealed-version reports from the registration
	// handshake until the cluster assembles (a rejoining worker telling
	// a restarted coordinator what it still serves); folded into the
	// query catalog at finalize.
	sealed []sealedReport
}

func (w *ccWorker) dead() bool {
	return w.caller != nil && w.caller.Err() != nil
}

// call issues one RPC, tracking it for the heartbeat monitor.
func (w *ccWorker) call(ctx context.Context, method string, params, result any) error {
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	return w.caller.Call(ctx, method, params, result)
}

// recordLost reports whether this call is the first to record the
// worker's loss.
func (w *ccWorker) recordLost() bool {
	return w.lostRecorded.CompareAndSwap(false, true)
}

// Coordinator is the cluster controller of a multi-process cluster: it
// assembles the node registry from worker handshakes, hands every
// process the agreed topology, and drives jobs phase by phase — each
// phase one hyracks job that all workers execute simultaneously, with
// the shuffle crossing the wire transport. The coordinator itself hosts
// no node controllers; it owns the global state, the plan choices, the
// replicated checkpoint store, and the failure manager: it probes
// workers with heartbeats, and when one dies it aborts the in-flight
// phase, repairs the topology (adopting a standby worker or spreading
// the dead worker's nodes over the survivors), restores every partition
// from the last committed checkpoint, and resumes the superstep loop.
type Coordinator struct {
	cfg     CoordinatorConfig
	ln      net.Listener
	ckpt    *dfs.FileSystem
	ckptDir string
	ownsDir bool

	mu        sync.Mutex
	pending   []*ccWorker
	workers   []*ccWorker
	spares    []*ccWorker
	nodes     []hyracks.NodeID
	peers     map[string]string // node ID → data-plane address
	assembled bool
	readyErr  error
	closed    bool
	// events is the event log (events.go); eventSeq numbers its entries.
	events   []Event
	eventSeq int64

	ready   chan struct{}
	stop    chan struct{}
	spareCh chan struct{}
	// scaleCh wakes the idle rebalancer when an elastic worker parks or
	// a drain is requested.
	scaleCh chan struct{}
	// jobMu is held by whatever is changing the cluster under a quiesced
	// boundary: a run for its whole length, the idle rebalancer for one
	// pass. (Which job runs next is the serve tier's Gate's decision.)
	jobMu sync.Mutex
	// shipped caches the content hash of files already replicated to the
	// workers, so resubmitting jobs over the same uploaded input does not
	// re-ship the graph every time. Cleared when a new process becomes a
	// member (admitLocked: it has none of the files). Guarded by jobMu
	// (only RunJob and the topology changes it drives use it).
	shipped map[string]uint64

	// Query tier (coordinator_query.go): the latest sealed result
	// version per base job name with its partition→worker owner map, and
	// the hot-vertex LRU.
	qmu     sync.Mutex
	queries map[string]*clusterResult
	qcache  *vertexCache
}

// NewCoordinator starts the control-plane listener and begins accepting
// worker registrations. WaitReady blocks until the expected number of
// workers has joined.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("core: CoordinatorConfig.Workers must be positive")
	}
	if cfg.PartitionsPerNode <= 0 {
		cfg.PartitionsPerNode = 1
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 2 * time.Second
	}
	if cfg.HeartbeatMisses <= 0 {
		cfg.HeartbeatMisses = 3
	}
	dir := cfg.BaseDir
	ownsDir := false
	metaDir := ""
	if cfg.StateDir != "" {
		// Durable mode: everything roots in the external state dir and
		// the DFS namespace persists, so a restarted coordinator finds
		// its committed checkpoints and journaled deltas intact.
		dir = cfg.StateDir
		metaDir = filepath.Join(dir, "ckpt")
	} else if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "pregelix-cc-")
		if err != nil {
			return nil, err
		}
		ownsDir = true
	}
	var datanodes []*dfs.Datanode
	for i := 1; i <= 3; i++ {
		datanodes = append(datanodes, &dfs.Datanode{
			Name: fmt.Sprintf("cc%d", i),
			Dir:  filepath.Join(dir, "ckpt", fmt.Sprintf("cc%d", i)),
		})
	}
	ckpt, err := dfs.New(datanodes, dfs.Options{Replication: dfsReplication, MetaDir: metaDir})
	if err != nil {
		if ownsDir {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		if ownsDir {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		ckpt:    ckpt,
		ckptDir: dir,
		ownsDir: ownsDir,
		peers:   make(map[string]string),
		ready:   make(chan struct{}),
		stop:    make(chan struct{}),
		spareCh: make(chan struct{}, 1),
		scaleCh: make(chan struct{}, 1),
		shipped: make(map[string]uint64),
		queries: make(map[string]*clusterResult),
		qcache:  newVertexCache(),
	}
	go c.acceptLoop()
	go c.idleRebalanceLoop()
	return c, nil
}

// Addr returns the bound control-plane address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// WaitReady blocks until every expected worker has registered and the
// cluster topology has been broadcast.
func (c *Coordinator) WaitReady(ctx context.Context) error {
	// Check readiness first: with an already-expired ctx both select
	// cases would be runnable and the choice random.
	select {
	case <-c.ready:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.readyErr
	default:
	}
	select {
	case <-c.ready:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.readyErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ready reports (without blocking) whether the cluster has assembled
// successfully.
func (c *Coordinator) Ready() bool {
	select {
	case <-c.ready:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.readyErr == nil
	default:
		return false
	}
}

// Err reports why the cluster cannot run jobs at all: an assembly
// failure, or every worker lost with no standby to adopt their nodes.
// A single lost worker is NOT an error — the next job submission
// repairs the topology (standby adoption or redistribution) before
// loading; see Events for what happened.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readyErr != nil {
		return c.readyErr
	}
	if !c.assembled {
		return nil
	}
	live := 0
	for _, w := range c.workers {
		if !w.dead() {
			live++
		}
	}
	if live == 0 && c.liveSparesLocked() == 0 {
		return fmt.Errorf("core: no live workers remain (start a standby `pregelix worker` to recover)")
	}
	return nil
}

// liveSparesLocked counts parked standbys whose connection is still up
// (a spare can die while parked; its caller's read loop notices).
func (c *Coordinator) liveSparesLocked() int {
	n := 0
	for _, sp := range c.spares {
		if !sp.dead() {
			n++
		}
	}
	return n
}

// Nodes returns a copy of the agreed cluster node list (empty until the
// cluster has assembled).
func (c *Coordinator) Nodes() []hyracks.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]hyracks.NodeID(nil), c.nodes...)
}

// Workers returns the live registered worker count (after WaitReady).
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked()
}

// liveWorkersLocked is Workers for a caller that holds c.mu.
func (c *Coordinator) liveWorkersLocked() int {
	n := 0
	for _, w := range c.workers {
		if !w.dead() {
			n++
		}
	}
	return n
}

// Standbys returns the number of live parked replacement workers.
func (c *Coordinator) Standbys() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveSparesLocked()
}

// Close shuts the control plane down; worker processes observe their
// control connection dropping and exit.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns := append([]*ccWorker(nil), c.pending...)
	conns = append(conns, c.workers...)
	conns = append(conns, c.spares...)
	c.mu.Unlock()
	close(c.stop)
	c.ln.Close()
	for _, w := range conns {
		w.ctrl.Close()
	}
	if c.ownsDir {
		os.RemoveAll(c.ckptDir)
	}
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.register(conn)
	}
}

// register consumes one worker's handshake request. Before assembly the
// worker joins the forming cluster; once the expected count is reached
// the topology is built and broadcast. A worker registering against an
// already-assembled cluster parks as a standby, adopted by the next
// topology repair — or, when it registered as elastic, picked up by the
// next rebalance point, which migrates partitions onto it.
func (c *Coordinator) register(conn net.Conn) {
	ctrl, err := wire.AcceptControl(conn)
	if err != nil {
		conn.Close()
		return
	}
	env, err := ctrl.Read()
	if err != nil || env.Method != "register" {
		ctrl.Close()
		return
	}
	var reg registerMsg
	if err := json.Unmarshal(env.Data, &reg); err != nil || reg.Nodes <= 0 || reg.DataAddr == "" {
		ctrl.Send(wire.Envelope{ID: env.ID, Error: "bad registration"})
		ctrl.Close()
		return
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ctrl.Send(wire.Envelope{ID: env.ID, Error: "cluster is shutting down"})
		ctrl.Close()
		return
	}
	w := &ccWorker{ctrl: ctrl, dataAddr: reg.DataAddr, regID: env.ID, elastic: reg.Elastic, sealed: reg.Sealed}
	if c.assembled {
		// Standby: hold the handshake open; adoption answers it with the
		// node IDs the worker is taking over. The caller starts now even
		// though no RPC flows until adoption: a parked worker sends
		// nothing except a possible drain notification, so the read
		// loop's outcomes before then are detecting the connection dying
		// — which keeps Standbys/Err honest about how much recovery
		// capacity is really parked — and releasing a drained spare.
		w.caller = wire.NewCaller(ctrl)
		w.caller.OnNotify(func(env wire.Envelope) { c.handleNotify(w, env) })
		w.caller.Start()
		c.spares = append(c.spares, w)
		c.mu.Unlock()
		if w.elastic {
			c.cfg.logf("coordinator: elastic worker %s joined (rebalance pending)", ctrl.RemoteAddr())
		} else {
			c.cfg.logf("coordinator: standby worker %s parked (awaiting adoption)", ctrl.RemoteAddr())
		}
		// A rejoiner holding sealed versions keeps them parked: it is
		// blocked in its handshake read and cannot serve query RPCs
		// until startSpare completes the handshake, so its reports are
		// folded in at promotion time, not here.
		select {
		case c.spareCh <- struct{}{}:
		default:
		}
		if w.elastic {
			c.signalRebalance()
		}
		return
	}
	if len(c.pending)+len(c.workers) >= c.cfg.Workers {
		c.mu.Unlock()
		ctrl.Send(wire.Envelope{ID: env.ID, Error: "cluster already assembled"})
		ctrl.Close()
		return
	}
	for i := 0; i < reg.Nodes; i++ {
		w.owned = append(w.owned, "") // node IDs assigned at finalize
	}
	c.pending = append(c.pending, w)
	complete := len(c.pending) == c.cfg.Workers
	c.mu.Unlock()
	c.cfg.logf("coordinator: worker %s registered (%d nodes)", ctrl.RemoteAddr(), reg.Nodes)
	if complete {
		c.finalize()
	}
}

// finalize assigns node IDs (nc1..ncN in registration order), broadcasts
// the start message, opens the RPC callers and starts the heartbeat
// monitors.
func (c *Coordinator) finalize() {
	c.mu.Lock()
	workers := c.pending
	c.pending = nil
	idx := 1
	for _, w := range workers {
		for i := range w.owned {
			id := fmt.Sprintf("nc%d", idx)
			idx++
			w.owned[i] = id
			c.peers[id] = w.dataAddr
			c.nodes = append(c.nodes, hyracks.NodeID(id))
		}
	}
	total := idx - 1
	c.workers = workers
	c.assembled = true
	peers := c.peersLocked()
	c.mu.Unlock()

	for _, w := range workers {
		data, err := json.Marshal(startMsg{
			TotalNodes:        total,
			Owned:             w.owned,
			Peers:             peers,
			PartitionsPerNode: c.cfg.PartitionsPerNode,
			RAMBytes:          c.cfg.RAMBytes,
			PageSize:          c.cfg.PageSize,
		})
		if err == nil {
			err = w.ctrl.Send(wire.Envelope{ID: w.regID, Data: data})
		}
		if err != nil {
			c.mu.Lock()
			c.readyErr = fmt.Errorf("core: starting worker %s: %w", w.ctrl.RemoteAddr(), err)
			c.mu.Unlock()
		}
		w.caller = wire.NewCaller(w.ctrl)
		w.caller.OnNotify(func(env wire.Envelope) { c.handleNotify(w, env) })
		w.caller.Start()
		go c.monitor(w)
	}
	// Rejoining workers whose sessions outlived a previous coordinator
	// reported the sealed query versions they still hold; rebuild the
	// catalog from the reports so reads resume without re-running jobs.
	for _, w := range workers {
		c.adoptSealed(w, w.sealed)
		w.sealed = nil
	}
	c.cfg.logf("coordinator: cluster assembled — %d workers, %d nodes", len(workers), total)
	close(c.ready)
}

func (c *Coordinator) peersLocked() map[string]string {
	out := make(map[string]string, len(c.peers))
	for k, v := range c.peers {
		out[k] = v
	}
	return out
}

// monitor probes one worker's liveness over the control connection. A
// worker that misses HeartbeatMisses consecutive probes — hung, wedged
// behind a dead NAT entry, or otherwise unresponsive while its TCP
// connection still looks open — has its connection closed, which fails
// its RPC caller exactly as a crash would: in-flight phase calls
// unblock immediately and the next superstep error triggers recovery.
// A crashed worker (connection reset) is detected without waiting for
// a probe, since the caller's read loop fails at once.
func (c *Coordinator) monitor(w *ccWorker) {
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	misses := 0
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		if w.caller.Err() != nil {
			return // connection already dead; recovery observes caller.Err
		}
		if w.inflight.Load() > 0 {
			// A phase RPC is outstanding on this connection. Checkpoint
			// and restore frames carry whole partition images, so a
			// heartbeat queued behind one can legitimately exceed the
			// miss budget; don't convert a slow bulk transfer into a
			// declared death (a genuine crash mid-transfer still breaks
			// the connection, which fails the phase call immediately).
			misses = 0
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatInterval)
		err := w.caller.Call(ctx, rpcHeartbeat, struct{}{}, nil)
		cancel()
		if err == nil {
			misses = 0
			continue
		}
		if w.caller.Err() != nil {
			return
		}
		misses++
		if misses >= c.cfg.HeartbeatMisses {
			if w.recordLost() {
				c.mu.Lock()
				nodes := append([]string(nil), w.owned...)
				c.mu.Unlock()
				c.record(Event{
					Kind:   EventWorkerLost,
					Worker: w.ctrl.RemoteAddr(),
					Nodes:  nodes,
					Inputs: map[string]float64{
						"misses":      float64(misses),
						"heartbeatMs": float64(c.cfg.HeartbeatInterval.Milliseconds()),
					},
					Detail: fmt.Sprintf("missed %d heartbeats", misses),
				})
			}
			w.ctrl.Close() // fails the caller; blocked phase RPCs unwind
			return
		}
	}
}

// reapDead removes workers with failed control connections from the
// active set and returns them. Their nodes become orphans that the next
// repairTopology reassigns.
func (c *Coordinator) reapDead() []*ccWorker {
	c.mu.Lock()
	var dead, live []*ccWorker
	for _, w := range c.workers {
		if w.dead() {
			dead = append(dead, w)
		} else {
			live = append(live, w)
		}
	}
	if len(dead) > 0 {
		c.workers = live
	}
	deadNodes := make([][]string, len(dead))
	for i, w := range dead {
		deadNodes[i] = append([]string(nil), w.owned...)
	}
	c.mu.Unlock()
	for i, w := range dead {
		if w.recordLost() { // the heartbeat monitor may have recorded it
			c.record(Event{
				Kind:   EventWorkerLost,
				Worker: w.ctrl.RemoteAddr(),
				Nodes:  deadNodes[i],
				Detail: w.caller.Err().Error(),
			})
		}
		w.ctrl.Close()
	}
	return dead
}

// takeSpare pops the oldest live parked standby worker, if any,
// discarding spares whose connection died while parked.
func (c *Coordinator) takeSpare() *ccWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.spares) > 0 {
		sp := c.spares[0]
		c.spares = c.spares[1:]
		if sp.dead() {
			sp.ctrl.Close()
			continue
		}
		return sp
	}
	return nil
}

// startSpare completes a parked worker's held-open handshake, handing
// it the node IDs it will host, and (when a job is in flight) opens the
// job session on it so a following restore or migration can populate
// its partitions. It commits nothing in the coordinator's own state:
// the caller flips ownership and routing only once the spare is known
// good, so a spare dying here leaves the cluster untouched.
func (c *Coordinator) startSpare(ctx context.Context, sp *ccWorker, owned []string, begin *jobBeginMsg) error {
	c.mu.Lock()
	total := len(c.nodes)
	peers := c.peersLocked()
	c.mu.Unlock()
	for _, id := range owned {
		peers[id] = sp.dataAddr // the spare's own view routes its nodes to itself
	}
	data, err := json.Marshal(startMsg{
		TotalNodes:        total,
		Owned:             owned,
		Peers:             peers,
		PartitionsPerNode: c.cfg.PartitionsPerNode,
		RAMBytes:          c.cfg.RAMBytes,
		PageSize:          c.cfg.PageSize,
	})
	if err != nil {
		return err
	}
	if err := sp.ctrl.Send(wire.Envelope{ID: sp.regID, Data: data}); err != nil {
		return err
	}
	// The spare's caller has been running since it parked (detecting
	// death-while-parked); from here it carries real RPCs.
	if err := sp.call(ctx, rpcPing, struct{}{}, nil); err != nil {
		return err
	}
	// The worker is serving now; if its session rejoined with sealed
	// query versions (it reconnected after a coordinator restart or a
	// transient partition), fold them back into the catalog so reads
	// route to it again.
	if len(sp.sealed) > 0 {
		c.adoptSealed(sp, sp.sealed)
		sp.sealed = nil
	}
	if begin != nil {
		if err := sp.call(ctx, rpcJobBegin, begin, nil); err != nil {
			return err
		}
	}
	return nil
}

// adopt completes a standby's held-open handshake, handing it the
// orphaned node IDs, and (when a job is in flight) opens the job
// session on it so the following restore can populate its partitions.
func (c *Coordinator) adopt(ctx context.Context, sp *ccWorker, orphans []string, begin *jobBeginMsg) error {
	if err := c.startSpare(ctx, sp, orphans, begin); err != nil {
		sp.ctrl.Close()
		return err
	}
	c.mu.Lock()
	sp.owned = append([]string(nil), orphans...)
	for _, id := range orphans {
		c.peers[id] = sp.dataAddr
	}
	c.admitLocked(sp)
	c.mu.Unlock()
	return nil
}

// repairTopology reassigns orphaned node IDs — nodes whose hosting
// worker died — to a standby worker if one joins within ReplaceWait, or
// otherwise spreads them round-robin over the survivors, then
// broadcasts the updated routing table to every worker. It is a no-op
// on a healthy topology. Callers hold jobMu, so no phase is in flight
// while the local-node sets change. begin, when non-nil, is the open
// job session an adopted standby must join.
func (c *Coordinator) repairTopology(ctx context.Context, begin *jobBeginMsg) error {
	c.mu.Lock()
	ownedNow := make(map[string]bool)
	for _, w := range c.workers {
		for _, id := range w.owned {
			ownedNow[id] = true
		}
	}
	var orphans []string
	for _, id := range c.nodes {
		if !ownedNow[string(id)] {
			orphans = append(orphans, string(id))
		}
	}
	survivors := len(c.workers)
	c.mu.Unlock()
	if len(orphans) == 0 {
		return nil
	}

	var adopted *ccWorker
	deadline := time.Now().Add(c.cfg.ReplaceWait)
	for {
		sp := c.takeSpare()
		if sp != nil {
			if err := c.adopt(ctx, sp, orphans, begin); err != nil {
				c.cfg.logf("coordinator: standby %s failed during adoption: %v", sp.ctrl.RemoteAddr(), err)
				continue // a fresher standby may still be parked
			}
			adopted = sp
			break
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			break
		}
		if wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.spareCh:
		case <-time.After(wait):
		}
	}

	if adopted != nil {
		c.record(Event{
			Kind:   EventReplaced,
			Worker: adopted.ctrl.RemoteAddr(),
			Nodes:  orphans,
			Detail: "standby worker adopted the lost nodes",
		})
	} else {
		if survivors == 0 {
			return fmt.Errorf("core: no live workers remain and no standby joined within %s", c.cfg.ReplaceWait)
		}
		c.mu.Lock()
		for i, id := range orphans {
			w := c.workers[i%len(c.workers)]
			w.owned = append(w.owned, id)
			c.peers[id] = w.dataAddr
		}
		c.mu.Unlock()
		c.record(Event{
			Kind:  EventRedistributed,
			Nodes: orphans,
			Inputs: map[string]float64{
				"survivors":     float64(survivors),
				"replaceWaitMs": float64(c.cfg.ReplaceWait.Milliseconds()),
			},
			Detail: fmt.Sprintf("no standby within the replace wait: respread over %d surviving workers", survivors),
		})
	}

	// Broadcast the repaired routing table. Every worker — including an
	// adopted standby, idempotently — installs its owned set and peers.
	return c.broadcastTopology(ctx, nil)
}

// broadcastTopology ships every active worker its owned-node set and
// the cluster routing table (cluster.reconfigure), plus the names of
// jobs whose parked wire streams it must purge — after a migration the
// old topology's stragglers can never be claimed.
func (c *Coordinator) broadcastTopology(ctx context.Context, purgeJobs []string) error {
	c.mu.Lock()
	peers := c.peersLocked()
	c.mu.Unlock()
	if _, err := phaseCallTo[struct{}](ctx, c, c.members(), "", rpcReconfigure, func(w *ccWorker) any {
		return reconfigureMsg{Owned: w.owned, Peers: peers, PurgeJobs: purgeJobs}
	}); err != nil {
		return fmt.Errorf("core: reconfiguring %w", err)
	}
	return nil
}

// phaseCall issues one RPC, the same for all, to every worker in
// parallel and collects the typed replies (see phaseCallTo).
func phaseCall[T any](ctx context.Context, c *Coordinator, jobName, method string, params any) ([]T, error) {
	return phaseCallTo[T](ctx, c, c.members(), jobName, method, func(*ccWorker) any { return params })
}

// phaseCallTo issues one RPC to each listed worker in parallel, each
// with its own parameters, and collects the typed replies in the list's
// order. The first failure cancels the job's in-flight phase on every
// worker (so peers blocked in the same phase unwind). Once every call —
// and the cancellation wave itself — has come back, so no stale abort
// can race a later retry of the phase, the cause is returned, naming its
// worker: the first failure in time that is not a cancellation, else the
// first failure. A survivor whose phase was canceled under it (its peer
// died mid-shuffle) may answer before the dead worker's connection
// error arrives, and is not the cause. An empty jobName means there is
// no phase to cancel.
func phaseCallTo[T any](ctx context.Context, c *Coordinator, workers []*ccWorker, jobName, method string, params func(*ccWorker) any) ([]T, error) {
	results := make([]T, len(workers))
	errs := make([]error, len(workers))
	// failed lists the failed calls in the order their failures came.
	var mu sync.Mutex
	var failed []int
	var once sync.Once
	var wg, cancelWG sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *ccWorker) {
			defer wg.Done()
			errs[i] = w.call(ctx, method, params(w), &results[i])
			if errs[i] == nil {
				return
			}
			mu.Lock()
			failed = append(failed, i)
			mu.Unlock()
			once.Do(func() {
				if jobName == "" {
					return
				}
				cancelWG.Add(1)
				go func() {
					defer cancelWG.Done()
					c.cancelJob(jobName)
				}()
			})
		}(i, w)
	}
	wg.Wait()
	cancelWG.Wait()
	if len(failed) == 0 {
		return results, nil
	}
	cause := failed[0]
	for _, i := range failed {
		if !isCancellation(errs[i]) {
			cause = i
			break
		}
	}
	return results, fmt.Errorf("worker %s: %w", workers[cause].ctrl.RemoteAddr(), errs[cause])
}

// isCancellation says whether a call failed only because its phase was
// canceled: here, or on the worker, whose reply carries the error's text.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || strings.HasSuffix(err.Error(), context.Canceled.Error())
}

// cancelJob aborts a job's in-flight phase on every worker (best
// effort); sessions and their partition state stay open.
func (c *Coordinator) cancelJob(name string) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	phaseCall[struct{}](ctx, c, "", rpcJobCancel, jobNameMsg{Name: name})
}

// Ping round-trips every worker's control connection.
func (c *Coordinator) Ping(ctx context.Context) error {
	_, err := phaseCall[map[string]string](ctx, c, "", rpcPing, struct{}{})
	return err
}

// PutFile replicates a DFS file onto every worker (inputs are uploaded
// to the controller and shipped to the cluster before the load phase).
func (c *Coordinator) PutFile(ctx context.Context, path string, data []byte) error {
	_, err := phaseCall[struct{}](ctx, c, "", rpcPutFile, &putFileMsg{Path: path, Data: data})
	return err
}

// DistSubmission is one job for the distributed cluster.
type DistSubmission struct {
	// Name is the unique (tenant-qualified) execution name.
	Name string
	// Spec is the opaque job descriptor shipped verbatim to every
	// worker's JobBuilder.
	Spec json.RawMessage
	// Job is the controller's own build of the same descriptor, used for
	// plan decisions (join planner, superstep cap, CheckpointEvery) and
	// validation.
	Job *pregel.Job
	// InputPath/InputData: when data is non-nil it is replicated to the
	// workers' file systems at InputPath before loading.
	InputPath string
	InputData []byte
	// WantOutput requests the dumped result rows back.
	WantOutput bool
	// Progress, when non-nil, is called after every committed superstep
	// (live status for the serve API; fault-injection tests use it to
	// time their kills).
	Progress func(superstep int64)
	// Resume asks the run to continue from the job's last committed
	// checkpoint manifest instead of loading from scratch — the restart
	// path for a job that was mid-flight when a durable coordinator
	// died. With no committed manifest (the crash predated the first
	// checkpoint) the run silently rolls back to a fresh load, which is
	// the correct recovery for that case too.
	Resume bool
}

// RunJob executes one Pregel job across the registered workers and
// blocks until it finishes: load (or resume), then the superstep driver
// (jobrun.go) over the cluster's phase RPCs — the controller owns the
// global state, chooses each superstep's join plan centrally, folds the
// workers' partition counters and votes, decides the halt, and drives a
// distributed checkpoint every Job.CheckpointEvery supersteps — and
// optionally the dump, whose rows every worker returns and the
// controller merges. Sticky vertex-partition placement holds across
// processes because every worker compiles the same deterministic
// schedule for every phase.
//
// When a worker dies mid-run and the job has a committed checkpoint,
// RunJob recovers instead of failing: the in-flight superstep is
// aborted everywhere, the topology is repaired, every partition is
// restored from the checkpoint, and the loop resumes from the
// checkpointed superstep — producing results identical to a
// failure-free run. A failure before the first checkpoint commits (or
// with CheckpointEvery unset) fails the job, but the cluster itself
// still heals before the next submission.
func (c *Coordinator) RunJob(ctx context.Context, sub DistSubmission) (*JobStats, []byte, error) {
	if err := c.WaitReady(ctx); err != nil {
		return nil, nil, err
	}
	if err := sub.Job.Validate(); err != nil {
		return nil, nil, err
	}
	c.jobMu.Lock()
	defer c.jobMu.Unlock()
	if err := c.prepareCluster(ctx); err != nil {
		return nil, nil, err
	}

	run := c.newRun(sub.Name, sub.Spec, sub.Job, sub.Progress)
	if c.cfg.Adaptive.Enabled {
		// The adaptive runtime's feedback loop: hot-partition splitting
		// and straggler relief (adaptive.go).
		run.advisor = newAdaptiveAdvisor(c.cfg.Adaptive)
	}
	stats := run.stats
	if sub.InputData != nil {
		// Workers keep replicated files in their file systems for the
		// process lifetime, so an input already shipped (same path, same
		// content) need not cross the control plane again.
		h := fnv.New64a()
		h.Write(sub.InputData)
		sum := h.Sum64()
		if c.shipped[sub.InputPath] != sum {
			if err := c.PutFile(ctx, sub.InputPath, sub.InputData); err != nil {
				return stats, nil, err
			}
			c.shipped[sub.InputPath] = sum
		}
	}

	if _, err := phaseCall[struct{}](ctx, c, sub.Name, rpcJobBegin, run.begin); err != nil {
		return stats, nil, err
	}
	// A run that completes seals its partition indexes on the workers as
	// a new query-tier result version; a failed or canceled run tears
	// down plainly, leaving any previously sealed version serving.
	completed := false
	defer func() {
		endCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		c.endJobSessions(endCtx, sub.Name, completed)
		// Keep the checkpoints of a run interrupted by cancellation: on
		// a durable coordinator that is the graceful-shutdown path, and
		// the checkpoints are exactly what the restarted process resumes
		// from. (If the same name later completes, they are reclaimed.)
		if completed || ctx.Err() == nil {
			c.removeCheckpoints(sub.Name)
		}
	}()

	// Resume path: a durable coordinator restarting a job that was
	// mid-flight when the previous process died skips the load and
	// rewinds every worker to the last committed checkpoint manifest.
	// No manifest (the crash predated the first commit) rolls back to
	// an ordinary fresh load.
	resumed := false
	if sub.Resume {
		m, err := c.restoreRun(ctx, run, run.attempt, nil)
		switch {
		case err == nil:
			run.rewindTo(m)
			resumed = true
			c.record(Event{Kind: EventResumed, Job: sub.Name, Superstep: m.Superstep,
				Detail: "resumed from the last committed checkpoint"})
		case errors.Is(err, errNoCheckpoint):
			c.record(Event{Kind: EventResumed, Job: sub.Name,
				Detail: "no committed checkpoint: rolling back to a fresh load"})
		default:
			return stats, nil, fmt.Errorf("core: resuming %s from checkpoint: %w", sub.Name, err)
		}
	}

	if !resumed {
		// Load phase: every worker bulk-loads its partitions; the merged
		// counters seed the global state, every vertex active. A worker
		// lost here fails the job (nothing has been checkpointed), but the
		// cluster heals before the next submission.
		loadStart := time.Now()
		loads, err := phaseCall[loadReply](ctx, c, sub.Name, rpcJobLoad, jobNameMsg{Name: sub.Name})
		if err != nil {
			return stats, nil, fmt.Errorf("core: distributed load %s: %w", sub.Name, err)
		}
		var parts []partCount
		for _, rep := range loads {
			parts = append(parts, rep.Parts...)
		}
		run.gs = seedGS(0, parts)
		run.gs.LiveVertices = run.gs.NumVertices
		stats.LoadDuration = time.Since(loadStart)
		c.cfg.logf("coordinator: %s loaded — %d vertices, %d edges", sub.Name, run.gs.NumVertices, run.gs.NumEdges)
	}

	ph := &clusterPhases{c: c, wantOutput: sub.WantOutput}
	if err := run.drive(ctx, ph); err != nil {
		return stats, nil, err
	}
	completed = true
	return stats, ph.output, nil
}

// prepareCluster is the between-jobs pass (caller holds jobMu), made
// before every run and by the idle rebalancer: it heals any failure
// that happened since the last job, so a degraded cluster repairs
// itself on the next submission instead of failing forever, and folds
// in any pending elasticity work (an elastic worker that joined, a
// drain requested) while moving a node costs nothing but a routing
// update.
func (c *Coordinator) prepareCluster(ctx context.Context) error {
	c.reapDead()
	if err := c.repairTopology(ctx, nil); err != nil {
		return err
	}
	return c.rebalance(ctx, nil)
}

// newRun starts a run's driver state, with the job session every worker
// — and any worker joining mid-run — opens for it.
func (c *Coordinator) newRun(name string, spec json.RawMessage, job *pregel.Job, progress func(int64)) *jobRun {
	run := newJobRun(name, job)
	run.progress = progress
	run.partLoad = make(map[int]int64)
	run.begin = &jobBeginMsg{
		Name:     name,
		Spec:     spec,
		ScanNode: string(c.nodes[0]),
		RunDir:   jobRunDir(name),
	}
	return run
}

// clusterPhases executes the driver's verbs as phase RPCs over the
// registered workers: the controller is the statistics collector, the
// checkpoint committer and the failure manager; workers execute.
type clusterPhases struct {
	c *Coordinator
	// wantOutput asks the dump verb for the result rows, left in output.
	wantOutput bool
	output     []byte
	// lastPlan is the previous superstep's join (plan-switch events).
	lastPlan string
	// reps and workers are the last superstep's replies and the worker
	// snapshot they are aligned with, kept for observe.
	reps    []superstepReply
	workers []*ccWorker
}

// boundary: superstep boundaries are the rebalance points. No phase is
// in flight, so partitions can migrate to an elastic joiner (or off a
// draining worker) as whole images, with no rollback and no lost
// superstep. A rebalance that fails because a worker died mid-migration
// falls through to checkpoint recovery.
func (p *clusterPhases) boundary(ctx context.Context, run *jobRun) error {
	if !p.c.pendingRebalance() {
		return nil
	}
	if err := p.c.rebalance(ctx, run); err != nil {
		return fmt.Errorf("core: rebalance of %s: %w", run.name, err)
	}
	return nil
}

func (p *clusterPhases) superstep(ctx context.Context, run *jobRun, ss int64, join pregel.JoinKind) (stepOutcome, error) {
	c := p.c
	if run.advisor != nil && p.lastPlan != "" && join.String() != p.lastPlan {
		// chooseJoinFor weighed the previous superstep's counters.
		c.record(Event{
			Kind: EventPlanSwitch, Job: run.name, Superstep: ss,
			Inputs: map[string]float64{
				"live":      float64(run.gs.LiveVertices),
				"messages":  float64(run.gs.Messages),
				"vertices":  float64(run.gs.NumVertices),
				"threshold": lojSelectivityThreshold,
			},
			Detail: fmt.Sprintf("%s → %s (join hint %s)", p.lastPlan, join, run.job.Join),
		})
	}
	p.lastPlan = join.String()
	// The straggler detector attributes reply timings to these workers.
	workers := c.members()
	msg := superstepMsg{Name: run.name, SS: ss, GS: run.gs, Join: join, Attempt: run.attempt, Splits: run.splits}
	reps, err := phaseCallTo[superstepReply](ctx, c, workers, run.name, rpcSuperstep, func(*ccWorker) any { return msg })
	if err != nil {
		return stepOutcome{}, fmt.Errorf("core: superstep %d of %s: %w", ss, run.name, err)
	}
	p.reps, p.workers = reps, workers
	// Feed the rebalancer's per-partition weights.
	for _, rep := range reps {
		for _, pc := range rep.Parts {
			run.partLoad[pc.Part] = pc.Vertices + pc.Msgs
		}
	}
	out, err := foldStep(run.job, reps)
	if err != nil {
		return stepOutcome{}, fmt.Errorf("core: superstep %d of %s: %w", ss, run.name, err)
	}
	return out, nil
}

// observe feeds the advisor and acts on its decisions at this superstep
// boundary (no phase in flight). A committed split forces an immediate
// checkpoint so the new partition table is journaled before anything
// can fail.
func (p *clusterPhases) observe(ctx context.Context, run *jobRun) (bool, error) {
	adv := run.advisor
	if adv == nil {
		return false, nil
	}
	c := p.c
	stat := run.stats.SuperstepStats[len(run.stats.SuperstepStats)-1]
	base := c.baseParts()
	timings := make([]WorkerPhase, len(p.reps))
	for i, rep := range p.reps {
		timings[i] = WorkerPhase{Addr: p.workers[i].ctrl.RemoteAddr(), Duration: time.Duration(rep.DurationNS)}
	}
	adv.Observe(RuntimeObservation{
		Job:        run.name,
		Stat:       stat,
		PartLoad:   run.partLoad,
		Workers:    timings,
		BaseParts:  base,
		TotalParts: totalParts(base, run.splits),
		NumSplits:  len(run.splits),
	})
	if d, ok := adv.SplitCandidate(); ok {
		committed, err := c.splitPartition(ctx, run, d)
		if err != nil {
			return false, fmt.Errorf("core: split at superstep %d of %s: %w", stat.Superstep, run.name, err)
		}
		return committed, nil
	}
	if d, ok := adv.Straggler(); ok {
		if err := c.relieveWorker(ctx, run, d); err != nil {
			return false, fmt.Errorf("core: straggler relief at superstep %d of %s: %w", stat.Superstep, run.name, err)
		}
	}
	return false, nil
}

// checkpoint: every worker images the partitions it owns
// (partition.send {all}) and the checkpoint writer puts the images into
// the controller's replicated store, committing the manifest only after
// every worker answered.
func (p *clusterPhases) checkpoint(ctx context.Context, run *jobRun, ss int64) error {
	c := p.c
	from := make(map[*ccWorker]partSendMsg)
	for _, w := range c.members() {
		from[w] = partSendMsg{Name: run.name, All: true}
	}
	imgs, err := c.imageParts(ctx, run.name, from)
	if err == nil {
		base := c.baseParts()
		table := partTable{NumParts: totalParts(base, run.splits), BaseParts: base, Splits: run.splits}
		err = writeCheckpoint(ctx, c.ckpt, run, ss, table, func(p int, vertex, msg io.Writer) (partStat, error) {
			pd := imgs[p]
			if pd == nil {
				return partStat{}, fmt.Errorf("no worker imaged it")
			}
			if _, err := vertex.Write(pd.Vertex); err != nil {
				return partStat{}, err
			}
			_, err := msg.Write(pd.Msg)
			return pd.Stats, err
		})
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint at superstep %d of %s: %w", ss, run.name, err)
	}
	c.cfg.logf("coordinator: %s checkpointed at superstep %d (%d partitions)", run.name, ss, len(imgs))
	return nil
}

// restore is the distributed failure manager: a phase failure with no
// dead worker behind it is forwarded as an application error. Otherwise,
// unless the job has no usable checkpoint, the in-flight phase is
// aborted on every survivor (their tasks drained, so topology and
// partition state can change safely), the topology repaired — a standby
// adopted, or the orphaned nodes spread over the survivors — and every
// worker restored under the next epoch.
func (p *clusterPhases) restore(ctx context.Context, run *jobRun, cause error) (*checkpointManifest, error) {
	c := p.c
	if len(c.reapDead()) == 0 {
		return nil, errNotRecoverable
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m, err := c.restoreRun(ctx, run, run.attempt+1, func(*checkpointManifest) error {
		phaseCall[struct{}](ctx, c, "", rpcJobAbort, jobNameMsg{Name: run.name})
		return c.repairTopology(ctx, run.begin)
	})
	if err == nil {
		c.record(Event{
			Kind: EventRestored, Job: run.name, Superstep: m.Superstep,
			Inputs: map[string]float64{"rolledBack": float64(run.gs.Superstep - m.Superstep)},
			Detail: cause.Error(),
		})
	}
	return m, err
}

// dump: every worker returns its partitions' rows in vid order, and the
// coordinator merges them.
func (p *clusterPhases) dump(ctx context.Context, run *jobRun) error {
	if !p.wantOutput {
		return nil
	}
	dumps, err := phaseCall[dumpReply](ctx, p.c, run.name, rpcJobDump, jobNameMsg{Name: run.name})
	if err != nil {
		return fmt.Errorf("core: dump of %s: %w", run.name, err)
	}
	shares := make([][]byte, len(dumps))
	for i := range dumps {
		shares[i] = dumps[i].Rows
	}
	if p.output, err = mergeDumps(shares); err != nil {
		return fmt.Errorf("core: dump of %s: %w", run.name, err)
	}
	return nil
}

// removeCheckpoints reclaims a finished job's checkpoint files. A
// coordinator that is shutting down keeps them: on a durable
// coordinator they are exactly what the restarted process resumes
// in-flight jobs from.
func (c *Coordinator) removeCheckpoints(name string) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	removeJobFiles(c.ckpt, name)
}
