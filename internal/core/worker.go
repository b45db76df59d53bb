package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
	"pregelix/internal/wire"
	"pregelix/pregel"
)

// WorkerConfig configures one worker process of a distributed cluster.
type WorkerConfig struct {
	// CCAddr is the cluster controller's control-plane address.
	CCAddr string
	// DataListen is the wire-transport listen address (host:0 picks a
	// port; default 127.0.0.1:0).
	DataListen string
	// BaseDir roots the worker's node storage and DFS.
	BaseDir string
	// Nodes is the number of node controllers this worker contributes.
	Nodes int
	// BuildJob turns an opaque job descriptor into a pregel.Job. Every
	// worker of a cluster must resolve the same descriptor to the same
	// logical job (the CLI registers its algorithm catalog here).
	BuildJob func(spec json.RawMessage) (*pregel.Job, error)
	// Elastic asks an already-assembled cluster to rebalance partitions
	// onto this worker at the next superstep (or job) boundary, instead
	// of parking it as a passive standby that only a failure would
	// adopt. Ignored when the worker joins a still-forming cluster.
	Elastic bool
	// Compress selects the frame compression policy for this worker's
	// bulk byte streams: wire shuffle frames it sends (negotiated per
	// stream, so peers running -compress=off interoperate) and the
	// checkpoint/migration images it produces (format-sniffed on read).
	// Zero value is tuple.CompressOff.
	Compress tuple.CompressMode
	// Drain, when non-nil, turns a signal on this channel into a
	// graceful-departure request: the worker asks the controller to
	// migrate its partitions out, keeps serving until the migration
	// completes, and RunWorker returns nil once the controller releases
	// it.
	Drain <-chan struct{}
	// SuperstepDelay, when non-nil, injects an artificial delay into
	// every superstep phase, called with the worker's owned vertex and
	// pending-message totals. The delay runs after the collective
	// dataflow completes, so it shows up in this worker's reported phase
	// time without stalling the cluster-wide shuffle barrier (a
	// pre-barrier sleep would block every peer and mask the straggler).
	// Tests use a fixed delay to exercise the coordinator's straggler
	// detector; the adaptive bench uses a load-proportional delay to
	// emulate per-node compute cost that a small container cannot
	// exhibit as real parallelism.
	SuperstepDelay func(vertices, msgs int64) time.Duration
	// Session, when non-nil, persists the worker's runtime and sealed
	// query versions across RunWorker calls: a rejoin loop that passes
	// the same session keeps serving its retained results after a
	// coordinator restart, and the registration handshake reports them
	// so the new coordinator can rebuild its catalog. Without a session
	// every call builds (and tears down) a fresh runtime.
	Session *WorkerSession
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *WorkerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// RunWorker runs a node-controller process: it announces itself to the
// cluster controller, hosts its share of the cluster's nodes, executes
// its tasks of every phase job, and ships shuffle frames to its peers
// over the wire transport. It blocks until ctx is cancelled, the
// control connection is lost, or — after a drain request — the
// controller releases the worker (a clean nil return).
//
// A worker started against an already-assembled cluster parks as a
// standby: the controller adopts it (handing it the node IDs of a dead
// worker) the next time a failure needs repairing, so "start another
// `pregelix worker`" is the whole replacement procedure. With Elastic
// set it instead triggers a rebalance that migrates partitions onto it
// at the next superstep (or job) boundary — "start another worker" is
// also the whole scale-out procedure.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.DataListen == "" {
		cfg.DataListen = "127.0.0.1:0"
	}
	if cfg.BuildJob == nil {
		return fmt.Errorf("core: WorkerConfig.BuildJob is required")
	}

	transport, err := wire.NewTCPTransport(wire.Config{ListenAddr: cfg.DataListen, Compress: cfg.Compress})
	if err != nil {
		return err
	}
	defer transport.Close()

	ctrl, err := wire.DialControl(cfg.CCAddr)
	if err != nil {
		return err
	}
	defer ctrl.Close()
	stop := context.AfterFunc(ctx, func() { ctrl.Close() })
	defer stop()

	// Handshake: register, then wait for the assembled-cluster response
	// (or, for a standby/elastic joiner, for adoption or rebalance into
	// a running cluster).
	regMsg := registerMsg{DataAddr: transport.Addr(), Nodes: cfg.Nodes, Elastic: cfg.Elastic}
	if cfg.Session != nil {
		regMsg.Sealed = cfg.Session.sealed()
	}
	reg, err := json.Marshal(regMsg)
	if err != nil {
		return err
	}
	if err := ctrl.Send(wire.Envelope{ID: 1, Method: "register", Data: reg}); err != nil {
		return err
	}
	cfg.logf("worker: registered with %s (%d nodes, data %s), waiting for cluster", cfg.CCAddr, cfg.Nodes, transport.Addr())

	// A drain signal becomes the one worker-initiated control message:
	// the controller migrates this worker's partitions out at the next
	// safe boundary, then releases it.
	if cfg.Drain != nil {
		go func() {
			select {
			case <-ctx.Done():
				return
			case <-cfg.Drain:
			}
			cfg.logf("worker: drain requested, waiting for the controller to migrate partitions out")
			ctrl.Send(wire.Envelope{Method: notifyDrain})
		}()
	}

	env, err := ctrl.Read()
	if err != nil {
		return fmt.Errorf("core: handshake: %w", err)
	}
	if env.Error == drainedHandshake {
		// A parked spare that asked to drain is released immediately:
		// it hosted nothing, so there was nothing to migrate.
		cfg.logf("worker: released (drained while parked)")
		return nil
	}
	if env.Error != "" {
		return fmt.Errorf("core: controller rejected registration: %s", env.Error)
	}
	var start startMsg
	if err := json.Unmarshal(env.Data, &start); err != nil {
		return err
	}

	// Every process constructs the same full cluster topology locally;
	// only the owned nodes' storage is ever touched. With a session the
	// runtime and query store outlive this connection (reused on rejoin
	// when the cluster geometry matches); without one they are built
	// fresh and torn down on return.
	var rt *Runtime
	var queries *QueryStore
	if cfg.Session != nil {
		rt, queries, err = cfg.Session.attach(&cfg, &start)
		if err != nil {
			return err
		}
	} else {
		rt, err = NewRuntime(Options{
			BaseDir:           cfg.BaseDir,
			Nodes:             start.TotalNodes,
			PartitionsPerNode: start.PartitionsPerNode,
			NodeConfig:        hyracks.NodeConfig{RAMBytes: start.RAMBytes, PageSize: start.PageSize},
			Compress:          cfg.Compress,
		})
		if err != nil {
			return err
		}
		defer rt.Close()
		queries = newQueryStore()
	}

	local := make(map[hyracks.NodeID]bool, len(start.Owned))
	for _, id := range start.Owned {
		local[hyracks.NodeID(id)] = true
	}
	peers := make(map[hyracks.NodeID]string, len(start.Peers))
	for id, addr := range start.Peers {
		peers[hyracks.NodeID(id)] = addr
	}
	transport.SetPeers(peers, local)

	w := &distWorker{
		cfg:       cfg,
		rt:        rt,
		transport: transport,
		exec:      hyracks.ExecOptions{Transport: transport, LocalNodes: local},
		ctx:       ctx,
		jobs:      make(map[string]*distJob),
		queries:   queries,
	}
	cfg.logf("worker: cluster up — %d nodes total, hosting %v", start.TotalNodes, start.Owned)
	err = wire.ServeControl(ctrl, w.handle)
	// The controller driving the open job sessions is gone (crashed, or
	// this connection broke). Their in-flight state is dead weight — a
	// restarted controller re-opens sessions from scratch and restores
	// from its checkpoint store — so reclaim it now; sealed query
	// versions live in the QueryStore and are untouched.
	w.teardownJobs()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if w.released.Load() {
		// The controller migrated everything away and released us; the
		// connection closing afterwards is the expected end of a drain,
		// not a failure.
		cfg.logf("worker: drained and released")
		return nil
	}
	return err
}

// distWorker is the worker-side session state.
type distWorker struct {
	cfg       WorkerConfig
	rt        *Runtime
	transport *wire.TCPTransport
	ctx       context.Context
	// released flips when the controller sends worker.release at the end
	// of a drain, turning the subsequent connection close into a clean
	// exit.
	released atomic.Bool

	mu   sync.Mutex
	exec hyracks.ExecOptions
	jobs map[string]*distJob

	// queries holds the sealed result versions this worker keeps serving
	// after job.end — the worker half of the always-on query tier.
	queries *QueryStore
}

// distJob is one open job session: the worker's runState whose partition
// state (vertex indexes, message run files) persists across phase RPCs.
// Each phase runs under its own cancellable context, so the controller
// can abort an in-flight phase (job.abort during failure recovery,
// job.cancel for a user cancellation) without tearing the session —
// and the partition state a later restore needs — down with it.
type distJob struct {
	rs     *runState
	ctx    context.Context // session context; cancelled at job.end
	cancel context.CancelFunc
	// delay is the injected per-superstep phase delay (WorkerConfig.
	// SuperstepDelay; nil = none).
	delay func(vertices, msgs int64) time.Duration

	// dirty holds the dirty sets between delta.ingest and delta.run when
	// this session is a delta refresh (nil for ordinary jobs).
	dirty deltaDirty

	mu          sync.Mutex
	phaseCancel context.CancelFunc
	phaseDone   chan struct{}
}

// beginPhase claims the session's single phase slot and returns the
// phase context plus its release function. Phases never overlap: the
// controller serializes them, and restore/checkpoint also run under the
// slot so they cannot race an executing superstep.
func (dj *distJob) beginPhase() (context.Context, func(), error) {
	dj.mu.Lock()
	defer dj.mu.Unlock()
	if dj.phaseCancel != nil {
		return nil, nil, fmt.Errorf("core: job %s already has a phase in flight", dj.rs.job.Name)
	}
	ctx, cancel := context.WithCancel(dj.ctx)
	done := make(chan struct{})
	dj.phaseCancel = cancel
	dj.phaseDone = done
	end := func() {
		dj.mu.Lock()
		dj.phaseCancel = nil
		dj.phaseDone = nil
		dj.mu.Unlock()
		cancel()
		close(done)
	}
	return ctx, end, nil
}

// abort cancels the in-flight phase (if any) and blocks until its tasks
// have fully unwound, so the caller may safely mutate session state —
// reload partitions, rewire the topology — once abort returns.
func (dj *distJob) abort() {
	dj.mu.Lock()
	cancel, done := dj.phaseCancel, dj.phaseDone
	dj.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if done != nil {
		<-done
	}
}

func (w *distWorker) job(name string) (*distJob, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	dj := w.jobs[name]
	if dj == nil {
		return nil, fmt.Errorf("core: no open job session %q", name)
	}
	return dj, nil
}

// handle dispatches one controller RPC.
func (w *distWorker) handle(method string, data json.RawMessage) (any, error) {
	switch method {
	case rpcPing:
		return map[string]string{"status": "ok"}, nil

	case rpcHeartbeat:
		// The probe's information is its reply arriving at all; the
		// coordinator discards the payload.
		return map[string]string{"status": "ok"}, nil

	case rpcPutFile:
		var msg putFileMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		return nil, w.rt.DFS.WriteFile(msg.Path, msg.Data)

	case rpcJobBegin:
		var msg jobBeginMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		_, err := w.beginJob(&msg)
		return nil, err

	case rpcJobLoad:
		var msg jobNameMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		dj, err := w.job(msg.Name)
		if err != nil {
			return nil, err
		}
		return dj.load()

	case rpcSuperstep:
		var msg superstepMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		dj, err := w.job(msg.Name)
		if err != nil {
			return nil, err
		}
		return dj.superstep(&msg)

	case rpcJobDump:
		var msg jobNameMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		dj, err := w.job(msg.Name)
		if err != nil {
			return nil, err
		}
		return dj.dump()

	case rpcJobCancel, rpcJobAbort:
		// Both verbs stop the in-flight phase and leave the session (and
		// its partition state) intact; they differ only in intent — a
		// user cancellation ends with job.end, a failure abort continues
		// with job.restore. The reply is sent only after the phase's
		// tasks have drained, so the controller can sequence repairs.
		var msg jobNameMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		if dj, err := w.job(msg.Name); err == nil {
			dj.abort()
		}
		return nil, nil

	case rpcJobCkpt:
		var msg ckptMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		dj, err := w.job(msg.Name)
		if err != nil {
			return nil, err
		}
		return dj.checkpoint(&msg)

	case rpcJobRestore:
		var msg restoreMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		dj, err := w.job(msg.Name)
		if err != nil {
			return nil, err
		}
		return nil, w.restoreJob(dj, &msg)

	case rpcReconfigure:
		var msg reconfigureMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		return nil, w.reconfigure(&msg)

	case rpcPartSend:
		var msg partSendMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		if msg.FromVersion != "" {
			// A delta refresh images sealed partitions, not an open
			// session's — there is no job session on the sealed side.
			return w.sealedPartitionSend(&msg)
		}
		dj, err := w.job(msg.Name)
		if err != nil {
			return nil, err
		}
		return dj.partitionSend(&msg)

	case rpcPartRecv:
		var msg partRecvMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		dj, err := w.job(msg.Name)
		if err != nil {
			return nil, err
		}
		return nil, dj.partitionRecv(&msg)

	case rpcPartSplit:
		var msg splitMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		dj, err := w.job(msg.Name)
		if err != nil {
			return nil, err
		}
		return nil, dj.partitionSplit(&msg)

	case rpcPartDrop:
		var msg partDropMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		dj, err := w.job(msg.Name)
		if err != nil {
			return nil, err
		}
		return nil, dj.partitionDrop(&msg)

	case rpcRelease:
		// End of a drain: everything this worker hosted has migrated
		// away; the connection closing next is a clean exit.
		w.released.Store(true)
		return map[string]string{"status": "released"}, nil

	case rpcJobEnd:
		var msg jobEndMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		return w.endJob(msg.Name, msg.Retain), nil

	case rpcDeltaIngest:
		var msg deltaIngestMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		return w.deltaIngest(&msg)

	case rpcDeltaRun:
		var msg deltaRunMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		return w.deltaRun(&msg)

	case rpcQueryPoint:
		var msg queryPointMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		results, err := w.queries.Point(msg.Version, msg.Vids)
		if err != nil {
			return nil, err
		}
		return &queryPointReply{Results: results}, nil

	case rpcQueryTopK:
		var msg queryTopKMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		entries, err := w.queries.TopK(msg.Version, msg.K)
		if err != nil {
			return nil, err
		}
		return &queryTopKReply{Entries: entries}, nil

	default:
		return nil, fmt.Errorf("core: unknown control method %q", method)
	}
}

// beginJob opens a job session: the worker builds the job from the
// shipped descriptor under the execution name and registers the runState
// every later phase of the session runs on.
func (w *distWorker) beginJob(msg *jobBeginMsg) (*distJob, error) {
	job, err := w.cfg.BuildJob(msg.Spec)
	if err != nil {
		return nil, err
	}
	job.Name = msg.Name
	if err := job.Validate(); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, dup := w.jobs[msg.Name]; dup {
		return nil, fmt.Errorf("core: job session %q already open", msg.Name)
	}
	jctx, cancel := context.WithCancel(w.ctx)
	rs := w.rt.newRunState(job, w.exec, tenancy{runDir: msg.RunDir})
	rs.pinScan = hyracks.NodeID(msg.ScanNode)
	dj := &distJob{rs: rs, ctx: jctx, cancel: cancel, delay: w.cfg.SuperstepDelay}
	w.jobs[msg.Name] = dj
	w.cfg.logf("worker: job %s opened", msg.Name)
	return dj, nil
}

func (w *distWorker) endJob(name string, retain bool) *jobEndReply {
	w.mu.Lock()
	dj := w.jobs[name]
	delete(w.jobs, name)
	exec := w.exec
	w.mu.Unlock()
	reply := &jobEndReply{}
	if dj == nil {
		return reply
	}
	dj.abort()
	dj.cancel()
	retained := false
	if retain {
		if r := dj.rs.seal(w.queries); r != nil {
			w.cfg.logf("worker: job %s sealed %d partitions for queries", name, len(r.parts))
			retained = true
			reply.Version = name
			reply.NumParts = r.numParts
			reply.BaseParts = r.baseParts
			reply.Splits = append([]splitRec(nil), r.splits...)
			for p := range r.parts {
				reply.Parts = append(reply.Parts, p)
			}
			sort.Ints(reply.Parts)
		}
	}
	dj.rs.cleanup()
	// Reset any wire streams still parked for this job's phases and
	// reclaim the job's scratch directories on owned nodes — unless
	// retained indexes still live there, in which case the sealed
	// version's retirement reclaims the directory instead.
	w.transport.PurgeJob(name)
	if !retained {
		for _, n := range w.rt.Cluster.Nodes() {
			if exec.Local(n.ID) {
				n.RemoveJobDir(dj.rs.runDir)
			}
		}
	}
	w.cfg.logf("worker: job %s closed", name)
	return reply
}

// teardownJobs closes every still-open job session without retaining:
// the in-process analog of process death for the sessions, used when
// the control connection is lost so a session-reusing rejoin does not
// leak the dead coordinator's in-flight state (or collide with the
// job.begin a restarted coordinator sends for the same name).
func (w *distWorker) teardownJobs() {
	w.mu.Lock()
	jobs := w.jobs
	w.jobs = make(map[string]*distJob)
	exec := w.exec
	w.mu.Unlock()
	for name, dj := range jobs {
		dj.abort()
		dj.cancel()
		dj.rs.cleanup()
		w.transport.PurgeJob(name)
		for _, n := range w.rt.Cluster.Nodes() {
			if exec.Local(n.ID) {
				n.RemoveJobDir(dj.rs.runDir)
			}
		}
		w.cfg.logf("worker: job %s torn down (control connection lost)", name)
	}
}

// reconfigure installs a repaired topology: this worker now hosts
// exactly msg.Owned (possibly including node IDs adopted from a dead
// peer — their storage directories already exist, since every process
// constructs the full simulated cluster) and routes peers through the
// updated address table. The controller guarantees no phase is in
// flight when reconfigure arrives (every session was aborted first), so
// swapping the local-node set cannot race an executing task.
func (w *distWorker) reconfigure(msg *reconfigureMsg) error {
	local := make(map[hyracks.NodeID]bool, len(msg.Owned))
	for _, id := range msg.Owned {
		local[hyracks.NodeID(id)] = true
	}
	peers := make(map[hyracks.NodeID]string, len(msg.Peers))
	for id, addr := range msg.Peers {
		peers[hyracks.NodeID(id)] = addr
	}
	w.mu.Lock()
	w.exec.LocalNodes = local
	for _, dj := range w.jobs {
		dj.rs.exec.LocalNodes = local
	}
	w.mu.Unlock()
	w.transport.SetPeers(peers, local)
	// After a migration the named jobs resume under a new epoch suffix;
	// stragglers parked for the old topology can never be claimed.
	for _, name := range msg.PurgeJobs {
		w.transport.PurgeJob(name)
	}
	w.cfg.logf("worker: reconfigured — now hosting %v", msg.Owned)
	return nil
}

// restoreJob rewinds a session to a committed checkpoint: all current
// partition state is dropped and owned partitions are rebuilt from the
// shipped snapshot images (the checkpointed global state arrives with
// the next superstep verb, like every superstep's). For a replacement
// worker the session has no partitions yet; the deterministic partition
// table is built first, so the reload lands on the same sticky placement
// every peer computes.
func (w *distWorker) restoreJob(dj *distJob, msg *restoreMsg) error {
	dj.abort() // defensive; the controller aborts before restoring
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return err
	}
	defer end()

	rs := dj.rs
	// Straggler streams of the aborted attempt parked in the transport
	// would otherwise leak (their senders are gone or were reset).
	w.transport.PurgeJob(rs.job.Name)

	// Rebuild the partition table from scratch at the manifest's split
	// level: a rollback may cross a split boundary in either direction
	// (a post-split failure restoring a pre-split checkpoint shrinks the
	// table; a restart resuming a post-split manifest grows it).
	rs.dropPartitionState()
	rs.initParts()
	rs.applySplits(msg.Splits)

	byPart := make(map[int]*ckptPartData, len(msg.Parts))
	for i := range msg.Parts {
		byPart[msg.Parts[i].Part] = &msg.Parts[i]
	}
	for _, ps := range rs.parts {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !rs.exec.Local(ps.node.ID) {
			continue // hosted elsewhere; its process reloads it
		}
		pd := byPart[ps.idx]
		if pd == nil {
			return fmt.Errorf("core: restore of %s: no snapshot for owned partition %d", rs.job.Name, ps.idx)
		}
		if err := rs.installImage(ps, pd); err != nil {
			return fmt.Errorf("core: restore of %s partition %d: %w", rs.job.Name, ps.idx, err)
		}
	}
	rs.attempt = msg.Attempt
	w.cfg.logf("worker: job %s restored to superstep %d (attempt %d)", rs.job.Name, msg.SS, msg.Attempt)
	return nil
}

func (dj *distJob) load() (*loadReply, error) {
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return nil, err
	}
	defer end()
	if err := dj.rs.load(ctx); err != nil {
		return nil, err
	}
	return &loadReply{Parts: dj.rs.partCounts()}, nil
}

// snapshotPartition produces one partition's image: the vertex relation
// and the pending combined messages as frame streams (compressed per
// the worker's policy; readers sniff the format), plus the restorable
// counters. Checkpoints and migrations share this single format — which
// is what lets partition.recv install an image with the same reload
// path a checkpoint restore uses.
func snapshotPartition(ps *partitionState, mode tuple.CompressMode) (ckptPartData, error) {
	var vbuf, mbuf bytes.Buffer
	if err := writeVertexSnapshot(&vbuf, ps, mode); err != nil {
		return ckptPartData{}, err
	}
	if err := writeMsgSnapshot(&mbuf, ps, mode); err != nil {
		return ckptPartData{}, fmt.Errorf("msgs: %w", err)
	}
	return ckptPartData{
		Part:   ps.idx,
		Vertex: vbuf.Bytes(),
		Msg:    mbuf.Bytes(),
		Stats:  partStatOf(ps),
	}, nil
}

// checkpoint snapshots the session's owned partitions as frame-image
// byte streams. The controller writes them into the replicated
// checkpoint store and commits the manifest only after every worker has
// replied — this RPC is the "worker ack" of the commit protocol.
func (dj *distJob) checkpoint(msg *ckptMsg) (*ckptReply, error) {
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return nil, err
	}
	defer end()
	reply := &ckptReply{Parts: []ckptPartData{}}
	for _, ps := range dj.rs.ownedParts() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pd, err := snapshotPartition(ps, dj.rs.rt.opts.Compress)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint of %s partition %d: %w", dj.rs.job.Name, ps.idx, err)
		}
		reply.Parts = append(reply.Parts, pd)
	}
	return reply, nil
}

// superstep runs the superstep verb under the session's phase slot and
// times it for the controller's straggler detector.
func (dj *distJob) superstep(msg *superstepMsg) (*superstepReply, error) {
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return nil, err
	}
	defer end()
	start := time.Now()
	var delay time.Duration
	if dj.delay != nil {
		// Against this worker's pre-superstep load.
		var dv, dm int64
		for _, ps := range dj.rs.ownedParts() {
			dv += ps.numVertices
			dm += ps.msgs
		}
		delay = dj.delay(dv, dm)
	}
	reply, err := dj.rs.runSuperstep(ctx, msg)
	if err != nil {
		return nil, err
	}
	// The collective dataflow is barrier-synchronized — every worker's
	// run returns when the cluster-wide superstep finishes, so only work
	// outside it can differentiate a straggler. The injected delay goes
	// here, where it lengthens this reply alone.
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	reply.DurationNS = time.Since(start).Nanoseconds()
	return reply, nil
}

// byIdx indexes the session's partition table.
func (dj *distJob) byIdx() map[int]*partitionState {
	out := make(map[int]*partitionState, len(dj.rs.parts))
	for _, ps := range dj.rs.parts {
		out[ps.idx] = ps
	}
	return out
}

// partitionSend snapshots the named partitions for migration — the
// exact frame-image form job.checkpoint produces (vertex index scanned
// in key order, pending combined-message run file copied byte for
// byte), but returned to the controller for forwarding to the new owner
// instead of the checkpoint store. The partitions stay live here until
// partition.drop. It claims the phase slot, so a migration can never
// overlap an executing superstep: asked mid-phase it is refused cleanly
// and the rebalance waits for the next boundary.
func (dj *distJob) partitionSend(msg *partSendMsg) (*partSendReply, error) {
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return nil, err
	}
	defer end()
	rs := dj.rs
	byIdx := dj.byIdx()
	reply := &partSendReply{Parts: []ckptPartData{}}
	for _, idx := range msg.Parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ps := byIdx[idx]
		if ps == nil {
			return nil, fmt.Errorf("core: migrate %s: no partition %d", rs.job.Name, idx)
		}
		if !rs.exec.Local(ps.node.ID) {
			return nil, fmt.Errorf("core: migrate %s: partition %d is not hosted here", rs.job.Name, idx)
		}
		pd, err := snapshotPartition(ps, rs.rt.opts.Compress)
		if err != nil {
			return nil, fmt.Errorf("core: migrate %s partition %d: %w", rs.job.Name, idx, err)
		}
		reply.Parts = append(reply.Parts, pd)
	}
	return reply, nil
}

// partitionRecv installs migrated partitions on this worker: the Vertex
// index is bulk-rebuilt from the shipped images, the Msg run file
// repacked, and Vid rederived when the plan needs it — the same reload
// path a checkpoint restore uses. A joiner that never loaded builds the
// deterministic partition table first, so the migrated partitions land
// on the same sticky placement every peer computes. The rebalance epoch
// is adopted with them.
func (dj *distJob) partitionRecv(msg *partRecvMsg) error {
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return err
	}
	defer end()
	rs := dj.rs
	if rs.parts == nil {
		rs.initParts()
	}
	rs.adoptSplits(msg.Splits)
	rs.attempt = msg.Attempt
	byIdx := dj.byIdx()
	for i := range msg.Parts {
		if err := ctx.Err(); err != nil {
			return err
		}
		pd := &msg.Parts[i]
		ps := byIdx[pd.Part]
		if ps == nil {
			return fmt.Errorf("core: migrate %s: unknown partition %d", rs.job.Name, pd.Part)
		}
		// Never leak a previously-held index: a partition can come back
		// to a worker that hosted it before.
		rs.dropOnePartition(ps)
		if err := rs.installImage(ps, pd); err != nil {
			return fmt.Errorf("core: migrate %s partition %d: %w", rs.job.Name, pd.Part, err)
		}
	}
	return nil
}

// partitionSplit installs a grown (or, after an abandoned split,
// shrunk) split table on this worker's session: the partition table is
// reconciled against the controller's list and the bumped rebalance
// epoch adopted, before any child image arrives via partition.recv. It
// claims the phase slot, so a split can never overlap an executing
// superstep.
func (dj *distJob) partitionSplit(msg *splitMsg) error {
	_, end, err := dj.beginPhase()
	if err != nil {
		return err
	}
	defer end()
	rs := dj.rs
	if rs.parts == nil {
		rs.initParts()
	}
	rs.adoptSplits(msg.Splits)
	rs.attempt = msg.Attempt
	return nil
}

// partitionDrop reclaims partitions that migrated away: their indexes
// and message files are dropped. Sent by the controller only after the
// new owner acked the images and the topology flip was broadcast.
func (dj *distJob) partitionDrop(msg *partDropMsg) error {
	_, end, err := dj.beginPhase()
	if err != nil {
		return err
	}
	defer end()
	byIdx := dj.byIdx()
	for _, idx := range msg.Parts {
		if ps := byIdx[idx]; ps != nil {
			dj.rs.dropOnePartition(ps)
		}
	}
	return nil
}

func (dj *distJob) dump() (*dumpReply, error) {
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return nil, err
	}
	defer end()
	rows, owner, err := dj.rs.dumpRows(ctx)
	if err != nil {
		return nil, err
	}
	reply := &dumpReply{Owner: owner}
	if owner {
		reply.Lines = make([]string, len(rows))
		for i, r := range rows {
			reply.Lines[i] = r.line
		}
	}
	return reply, nil
}
