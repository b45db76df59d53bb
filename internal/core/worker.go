package core

import (
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
	// bulk byte streams: wire shuffle frames it sends (each names its
	// encoding, so peers with any setting decode them) and the
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
	// so the new coordinator can rebuild its catalog. Without one the
	// call runs on a private session it closes on return.
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
	if cfg.Session == nil {
		cfg.Session = NewWorkerSession()
		defer cfg.Session.Close()
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
	reg, err := json.Marshal(registerMsg{DataAddr: transport.Addr(), Nodes: cfg.Nodes, Elastic: cfg.Elastic, Sealed: cfg.Session.sealed()})
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
	// only the owned nodes' storage is ever touched. The runtime and its
	// query store belong to the session: reused on rejoin when the
	// cluster geometry matches.
	rt, err := cfg.Session.attach(&cfg, &start)
	if err != nil {
		return err
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
	}
	cfg.logf("worker: cluster up — %d nodes total, hosting %v", start.TotalNodes, start.Owned)
	err = wire.Serve(ctrl, w.handle)
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

// decoded decodes one verb's parameters — JSON header and attachments —
// and runs the verb on them.
func decoded[M any](req *wire.Envelope, verb func(msg *M) (any, error)) (any, error) {
	var msg M
	if err := req.Decode(&msg); err != nil {
		return nil, err
	}
	return verb(&msg)
}

// inSession is decoded for a verb addressed at an open job session.
func inSession[M any, P interface {
	*M
	jobName() string
}](w *distWorker, req *wire.Envelope, verb func(dj *distJob, msg *M) (any, error)) (any, error) {
	return decoded(req, func(msg *M) (any, error) {
		dj, err := w.job(P(msg).jobName())
		if err != nil {
			return nil, err
		}
		return verb(dj, msg)
	})
}

// handle dispatches one controller RPC.
func (w *distWorker) handle(req *wire.Envelope) (any, error) {
	switch req.Method {
	case rpcPing, rpcHeartbeat:
		// A heartbeat's information is its reply arriving at all; the
		// coordinator discards the payload.
		return map[string]string{"status": "ok"}, nil
	case rpcPutFile:
		return decoded(req, func(msg *putFileMsg) (any, error) {
			return nil, w.rt.DFS.WriteFile(msg.Path, msg.Data)
		})
	case rpcJobBegin:
		return decoded(req, func(msg *jobBeginMsg) (any, error) {
			_, err := w.beginJob(msg)
			return nil, err
		})
	case rpcJobLoad:
		return inSession(w, req, func(dj *distJob, _ *jobNameMsg) (any, error) { return dj.load() })
	case rpcSuperstep:
		return inSession(w, req, func(dj *distJob, msg *superstepMsg) (any, error) { return dj.superstep(msg) })
	case rpcJobDump:
		return inSession(w, req, func(dj *distJob, _ *jobNameMsg) (any, error) { return dj.dump() })
	case rpcJobCancel, rpcJobAbort:
		// Both verbs stop the in-flight phase and leave the session (and
		// its partition state) intact; they differ only in intent — a
		// user cancellation ends with job.end, a failure abort continues
		// with a resetting partition.recv. The reply is sent only after
		// the phase's tasks have drained, so the controller can sequence
		// repairs. A session that is not open has nothing to stop.
		return decoded(req, func(msg *jobNameMsg) (any, error) {
			if dj, err := w.job(msg.Name); err == nil {
				dj.abort()
			}
			return nil, nil
		})
	case rpcReconfigure:
		return decoded(req, func(msg *reconfigureMsg) (any, error) { return nil, w.reconfigure(msg) })
	case rpcPartSend:
		return decoded(req, func(msg *partSendMsg) (any, error) { return w.partitionSend(msg) })
	case rpcPartRecv:
		return inSession(w, req, func(dj *distJob, msg *partRecvMsg) (any, error) { return nil, w.partitionRecv(dj, msg) })
	case rpcPartDrop:
		return inSession(w, req, func(dj *distJob, msg *partDropMsg) (any, error) { return nil, dj.partitionDrop(msg) })
	case rpcRelease:
		// End of a drain: everything this worker hosted has migrated
		// away; the connection closing next is a clean exit.
		w.released.Store(true)
		return map[string]string{"status": "released"}, nil
	case rpcJobEnd:
		return decoded(req, func(msg *jobEndMsg) (any, error) { return w.endJob(msg.Name, msg.Retain), nil })
	case rpcDeltaIngest:
		return decoded(req, func(msg *deltaIngestMsg) (any, error) { return w.deltaIngest(msg) })
	case rpcDeltaRun:
		return inSession(w, req, func(dj *distJob, _ *deltaRunMsg) (any, error) { return dj.deltaRun() })
	case rpcQueryPoint:
		return decoded(req, func(msg *queryPointMsg) (any, error) {
			results, err := w.rt.queries.Point(msg.Version, msg.Vids)
			return &queryPointReply{Results: results}, err
		})
	case rpcQueryTopK:
		return decoded(req, func(msg *queryTopKMsg) (any, error) {
			entries, err := w.rt.queries.TopK(msg.Version, msg.K)
			return &queryTopKReply{Entries: entries}, err
		})
	default:
		return nil, fmt.Errorf("core: unknown control method %q", req.Method)
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
	w.mu.Unlock()
	if dj == nil {
		return &jobEndReply{}
	}
	reply := w.closeSession(name, dj, retain)
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
	w.mu.Unlock()
	for name, dj := range jobs {
		w.closeSession(name, dj, false)
		w.cfg.logf("worker: job %s torn down (control connection lost)", name)
	}
}

// closeSession ends a job session already taken out of w.jobs: its
// phases are aborted, its result sealed for queries if retain asks and
// there is one, its run state released, the wire streams still parked
// for its phases reset and its scratch directories on owned nodes
// reclaimed — unless a sealed version's indexes live there, in which
// case that version's retirement reclaims the directory instead.
func (w *distWorker) closeSession(name string, dj *distJob, retain bool) *jobEndReply {
	dj.abort()
	dj.cancel()
	reply := &jobEndReply{}
	var r *retainedResult
	if retain {
		r = dj.rs.seal(w.rt.queries)
	}
	if r != nil {
		w.cfg.logf("worker: job %s sealed %d partitions for queries", name, len(r.parts))
		reply.Version, reply.partTable = name, r.partTable
		for p := range r.parts {
			reply.Parts = append(reply.Parts, p)
		}
		sort.Ints(reply.Parts)
	}
	dj.rs.cleanup()
	w.transport.PurgeJob(name)
	if r == nil {
		w.mu.Lock()
		exec := w.exec
		w.mu.Unlock()
		for _, n := range w.rt.Cluster.Nodes() {
			if exec.Local(n.ID) {
				n.RemoveJobDir(dj.rs.runDir)
			}
		}
	}
	return reply
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
		dj.rs.closePlan() // it launched the old node set's tasks
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

// partitionSend is the one imaging verb. It snapshots partitions in the
// frame-image form every movement shares (vertex index scanned in key
// order, pending combined-message run file copied byte for byte) and
// returns the images to the controller, which commits them to the
// checkpoint store or forwards them to a new owner. The source is the
// named partitions of an open session, every partition the session owns
// (All: a checkpoint), or the named partitions of a sealed result
// version (FromVersion: a delta refresh on a cluster whose topology
// moved since the seal). Live partitions stay live here until
// partition.drop, and imaging them claims the session's phase slot, so
// it can never overlap an executing superstep: asked mid-phase it is
// refused cleanly and the movement waits for the next boundary. A sealed
// version has no session; it stays acquired for the scan instead, so a
// concurrent seal of a newer version cannot destroy it mid-image.
func (w *distWorker) partitionSend(msg *partSendMsg) (*partSendReply, error) {
	mode := w.rt.opts.Compress
	reply := &partSendReply{Parts: []ckptPartData{}}
	if msg.FromVersion != "" {
		r, err := w.rt.queries.acquire(msg.FromVersion)
		if err != nil {
			return nil, err
		}
		defer r.release()
		for _, idx := range msg.Parts {
			if r.parts[idx] == nil {
				return nil, fmt.Errorf("core: imaging %s: partition %d not held here", msg.FromVersion, idx)
			}
			pd, err := imageIndex(r.parts[idx], idx, mode)
			if err != nil {
				return nil, fmt.Errorf("core: imaging %s partition %d: %w", msg.FromVersion, idx, err)
			}
			reply.Parts = append(reply.Parts, pd)
		}
		return reply, nil
	}

	dj, err := w.job(msg.Name)
	if err != nil {
		return nil, err
	}
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return nil, err
	}
	defer end()
	rs := dj.rs
	var parts []*partitionState
	if msg.All {
		parts = rs.ownedParts()
	}
	for _, idx := range msg.Parts {
		if idx < 0 || idx >= len(rs.parts) {
			return nil, fmt.Errorf("core: imaging %s: no partition %d", msg.Name, idx)
		}
		if !rs.exec.Local(rs.parts[idx].node.ID) {
			return nil, fmt.Errorf("core: imaging %s: partition %d is not hosted here", msg.Name, idx)
		}
		parts = append(parts, rs.parts[idx])
	}
	for _, ps := range parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ps.vertexIdx == nil {
			return nil, fmt.Errorf("core: imaging %s: partition %d holds no state here", msg.Name, ps.idx)
		}
		pd, err := snapshotPartition(ps, mode)
		if err != nil {
			return nil, fmt.Errorf("core: imaging %s partition %d: %w", msg.Name, ps.idx, err)
		}
		reply.Parts = append(reply.Parts, pd)
	}
	return reply, nil
}

// partitionRecv is the one installing verb: the session adopts the
// controller's split table and epoch, then rebuilds each shipped
// partition from its image — Vertex bulk-loaded, Msg repacked, Vid
// rederived when the plan needs it (installImage). A session that never
// loaded (a joiner, a replacement) builds the deterministic partition
// table first, so the images land on the same sticky placement every
// peer computes. With no images it only reconciles the table (a split
// being announced or withdrawn). With Reset it is a checkpoint restore:
// everything the session holds is dropped and the table rebuilt at the
// message's split level — a rollback may cross a split boundary in
// either direction — and an image must arrive for every partition this
// worker owns.
func (w *distWorker) partitionRecv(dj *distJob, msg *partRecvMsg) error {
	if msg.Reset {
		dj.abort() // defensive; the controller aborts before restoring
	}
	ctx, end, err := dj.beginPhase()
	if err != nil {
		return err
	}
	defer end()
	rs := dj.rs
	rs.closePlan() // the table's partitions move
	if msg.Reset {
		// Straggler streams of the aborted attempt parked in the transport
		// would otherwise leak (their senders are gone or were reset).
		w.transport.PurgeJob(rs.job.Name)
		rs.dropPartitionState()
		rs.parts = nil
	}
	if rs.parts == nil {
		rs.initParts()
	}
	rs.adoptSplits(msg.Splits)
	rs.attempt = msg.Attempt
	shipped := make(map[int]bool, len(msg.Parts))
	for i := range msg.Parts {
		if err := ctx.Err(); err != nil {
			return err
		}
		pd := &msg.Parts[i]
		if pd.Part < 0 || pd.Part >= len(rs.parts) {
			return fmt.Errorf("core: installing %s: unknown partition %d", rs.job.Name, pd.Part)
		}
		ps := rs.parts[pd.Part]
		// Never leak a previously-held index: a partition can come back
		// to a worker that hosted it before.
		rs.dropOnePartition(ps)
		if err := rs.installImage(ps, pd); err != nil {
			return fmt.Errorf("core: installing %s partition %d: %w", rs.job.Name, pd.Part, err)
		}
		shipped[pd.Part] = true
	}
	if msg.Reset {
		for _, ps := range rs.ownedParts() {
			if !shipped[ps.idx] {
				return fmt.Errorf("core: restore of %s: no image for owned partition %d", rs.job.Name, ps.idx)
			}
		}
		w.cfg.logf("worker: job %s restored (attempt %d)", rs.job.Name, msg.Attempt)
	}
	return nil
}

// partitionDrop reclaims partition copies this worker must not keep:
// the originals of partitions that migrated away (sent only after the
// new owner acked the images and the topology flip was broadcast) or
// the copies an aborted movement installed here.
func (dj *distJob) partitionDrop(msg *partDropMsg) error {
	_, end, err := dj.beginPhase()
	if err != nil {
		return err
	}
	defer end()
	dj.rs.closePlan()
	for _, idx := range msg.Parts {
		if idx >= 0 && idx < len(dj.rs.parts) {
			dj.rs.dropOnePartition(dj.rs.parts[idx])
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
	out, err := dj.rs.dumpRows(ctx)
	if err != nil {
		return nil, err
	}
	return &dumpReply{Rows: out}, nil
}
