package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"pregelix/internal/wire"
)

// Elastic cluster scaling. The Pregelix argument (Section 2 of the
// paper) is that running Pregel on a dataflow engine buys operational
// flexibility: plans, storage and placement can change without touching
// user programs. This file is the placement half of that promise — the
// cluster can grow and shrink while jobs run.
//
// The topology (node IDs nc1..ncN, partition i on node i%N) is fixed at
// assembly; what moves is which *process* hosts which node. A rebalance
// therefore never changes partition placement, schedules, or plans — it
// reassigns node ownership and migrates the affected partitions' state
// (vertex index + pending message frames, the exact images a checkpoint
// would write) between processes over the control plane. Because every
// process already constructs the full simulated cluster, "adopting a
// node" is just "start running its tasks" plus a routing-table update.
//
// Rebalances run only at superstep boundaries (or between jobs), when
// no phase is in flight, so — unlike crash recovery — nothing rolls
// back and no superstep is lost. The resumed loop runs under a bumped
// recovery-epoch suffix in its spec names, so any in-flight wire stream
// of the old topology can never be met.

// RebalanceEvent records one elasticity action — a worker joining with
// partitions migrated onto it, a graceful drain, or a refused request —
// surfaced through the serve API (/stats and /scale) so operators can
// see what the cluster did.
type RebalanceEvent struct {
	Time time.Time `json:"time"`
	// Kind is "scale-out", "drain", "drain-requested", "scale-refused",
	// "scale-failed", "drain-refused", "drain-failed", "relief" or
	// "relief-failed".
	Kind string `json:"kind"`
	// Worker is the joining or departing worker's control-plane address.
	Worker string `json:"worker,omitempty"`
	// Nodes lists the node IDs whose ownership moved.
	Nodes []string `json:"nodes,omitempty"`
	// Partitions counts partitions whose state was migrated as frame
	// images (0 for a rebalance between jobs: there is no live partition
	// state to move, only ownership).
	Partitions int `json:"partitions,omitempty"`
	// Job names the open job the migration was carried across, if any.
	Job string `json:"job,omitempty"`
	// Duration is the wall-clock cost of the whole rebalance step.
	Duration time.Duration `json:"duration,omitempty"`
	// Detail is a human-readable summary.
	Detail string `json:"detail,omitempty"`
}

// RebalanceEvents returns the elasticity log (oldest first).
func (c *Coordinator) RebalanceEvents() []RebalanceEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RebalanceEvent(nil), c.rebal...)
}

func (c *Coordinator) recordRebalance(ev RebalanceEvent) {
	ev.Time = time.Now()
	c.mu.Lock()
	c.rebal = append(c.rebal, ev)
	c.mu.Unlock()
	c.cfg.logf("coordinator: rebalance %s %s %v (%d partitions) %s",
		ev.Kind, ev.Worker, ev.Nodes, ev.Partitions, ev.Detail)
}

// WorkerInfo is one active worker in the Topology view.
type WorkerInfo struct {
	// Addr is the worker's control-plane address — the identity Drain
	// accepts and the one rebalance/recovery events report.
	Addr string `json:"addr"`
	// DataAddr is the worker's wire-transport listen address (also
	// accepted by Drain).
	DataAddr string `json:"dataAddr"`
	// Nodes lists the node IDs the worker currently hosts.
	Nodes []string `json:"nodes"`
	// Draining marks a worker whose graceful departure is pending.
	Draining bool `json:"draining"`
}

// Topology returns the live worker→nodes assignment (empty until the
// cluster has assembled).
func (c *Coordinator) Topology() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		if w.dead() {
			continue
		}
		out = append(out, WorkerInfo{
			Addr:     w.ctrl.RemoteAddr(),
			DataAddr: w.dataAddr,
			Nodes:    append([]string(nil), w.owned...),
			Draining: w.draining.Load(),
		})
	}
	return out
}

// Drain asks the cluster to gracefully retire a worker: at the next
// superstep (or job) boundary its partitions are migrated to the
// remaining workers, the routing table is rebroadcast, and the worker
// is released so it can exit — the planned-departure analog of failure
// recovery, with no checkpoint rollback and no lost superstep. addr
// matches either the worker's control-plane or data-plane address (see
// Topology). Draining the last live worker is refused.
func (c *Coordinator) Drain(addr string) error {
	c.mu.Lock()
	var target *ccWorker
	live := 0
	for _, w := range c.workers {
		if w.dead() {
			continue
		}
		live++
		if w.ctrl.RemoteAddr() == addr || w.dataAddr == addr {
			target = w
		}
	}
	c.mu.Unlock()
	if target == nil {
		return fmt.Errorf("core: no live worker %q (see the topology for addresses)", addr)
	}
	if live <= 1 {
		return fmt.Errorf("core: refusing to drain %q: it is the last live worker", addr)
	}
	c.requestDrain(target)
	return nil
}

// requestDrain flags an active worker for graceful departure and wakes
// the rebalancer.
func (c *Coordinator) requestDrain(w *ccWorker) {
	if !w.draining.CompareAndSwap(false, true) {
		return // already pending
	}
	c.mu.Lock()
	nodes := append([]string(nil), w.owned...)
	c.mu.Unlock()
	c.recordRebalance(RebalanceEvent{
		Kind:   "drain-requested",
		Worker: w.ctrl.RemoteAddr(),
		Nodes:  nodes,
	})
	c.signalRebalance()
}

// handleNotify dispatches a worker-initiated control-plane message (the
// only one is worker.drain: a departing worker asking to have its
// partitions migrated out before it exits).
func (c *Coordinator) handleNotify(w *ccWorker, env wire.Envelope) {
	if env.Method != notifyDrain {
		return
	}
	// A parked spare hosts nothing: release it immediately by answering
	// its held-open handshake.
	c.mu.Lock()
	for i, sp := range c.spares {
		if sp == w {
			c.spares = append(c.spares[:i], c.spares[i+1:]...)
			c.mu.Unlock()
			w.ctrl.Send(wire.Envelope{ID: w.regID, Error: drainedHandshake})
			w.ctrl.Close()
			c.recordRebalance(RebalanceEvent{Kind: "drain", Worker: w.ctrl.RemoteAddr(),
				Detail: "parked spare released (nothing to migrate)"})
			return
		}
	}
	active := false
	for _, aw := range c.workers {
		if aw == w {
			active = true
		}
	}
	c.mu.Unlock()
	if active {
		c.requestDrain(w)
	}
}

// drainedHandshake is the handshake "error" releasing a parked spare
// that asked to drain; the worker treats it as a clean exit.
const drainedHandshake = "drained"

func (c *Coordinator) signalRebalance() {
	select {
	case c.scaleCh <- struct{}{}:
	default:
	}
}

// pendingRebalance reports (without taking jobMu) whether any elastic
// joiner is parked or any active worker is draining.
func (c *Coordinator) pendingRebalance() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sp := range c.spares {
		if sp.elastic && !sp.dead() {
			return true
		}
	}
	for _, w := range c.workers {
		if w.draining.Load() && !w.dead() {
			return true
		}
	}
	return false
}

// idleRebalanceLoop serves rebalance requests that arrive while no job
// is running — an elastic worker joining an idle cluster, a drain of an
// idle worker — so elasticity does not wait for the next submission.
// While a job runs, jobMu is held and the superstep loop's own
// rebalance point handles the request first; the pass here then finds
// nothing left to do.
func (c *Coordinator) idleRebalanceLoop() {
	for {
		select {
		case <-c.stop:
			return
		case <-c.scaleCh:
		}
		if !c.Ready() {
			continue
		}
		c.jobMu.Lock()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		if err := c.prepareCluster(ctx); err != nil {
			c.cfg.logf("coordinator: idle repair and rebalance: %v", err)
		}
		cancel()
		c.jobMu.Unlock()
	}
}

// beginMsg and purgeNames are what a topology change needs of the open
// run it is carried across (none between jobs): the session a joiner
// must open, and the job whose parked wire streams every worker purges.
func (r *jobRun) beginMsg() *jobBeginMsg {
	if r == nil {
		return nil
	}
	return r.begin
}

func (r *jobRun) purgeNames() []string {
	if r == nil {
		return nil
	}
	return []string{r.name}
}

// rebalance performs all pending elasticity work at a safe boundary
// (caller holds jobMu; no phase is in flight): every parked elastic
// joiner is absorbed with a migration, then every draining worker is
// emptied and released. run is the open job the migrations are carried
// across (nil between jobs); each committed one bumps its epoch, so the
// resumed supersteps compile fresh spec names. Joins run first so a drain can spread over the
// new capacity. A non-nil error means a worker died mid-migration and
// the cluster needs the failure-recovery path; refusals and joiner
// failures are absorbed (recorded as events) and leave the old topology
// fully intact.
func (c *Coordinator) rebalance(ctx context.Context, run *jobRun) error {
	for {
		sp := c.takeElasticSpare()
		if sp == nil {
			break
		}
		if err := c.scaleOut(ctx, sp, run); err != nil {
			return err
		}
	}
	for {
		d := c.takeDraining()
		if d == nil {
			break
		}
		if err := c.drainWorker(ctx, d, run); err != nil {
			return err
		}
	}
	return nil
}

// takeElasticSpare pops the oldest live parked elastic joiner, if any.
func (c *Coordinator) takeElasticSpare() *ccWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, sp := range c.spares {
		if !sp.elastic {
			continue
		}
		c.spares = append(c.spares[:i], c.spares[i+1:]...)
		if sp.dead() {
			sp.ctrl.Close()
			continue
		}
		return sp
	}
	return nil
}

// takeDraining returns the first live active worker flagged for drain.
func (c *Coordinator) takeDraining() *ccWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.draining.Load() && !w.dead() {
			return w
		}
	}
	return nil
}

// partsOfNodesLocked expands node IDs to the partition indexes of the
// open run they host (partition i lives on node i%N, the same
// deterministic placement every runState computes).
func (c *Coordinator) partsOfNodesLocked(run *jobRun, ids []string) []int {
	n := len(c.nodes)
	if n == 0 {
		return nil
	}
	idx := make(map[string]int, n)
	for i, id := range c.nodes {
		idx[string(id)] = i
	}
	total := totalParts(n*c.cfg.PartitionsPerNode, run.splits)
	var out []int
	for _, id := range ids {
		j, ok := idx[id]
		if !ok {
			continue
		}
		for i := j; i < total; i += n {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// nodeLoadsLocked weighs every cluster node by the latest vertex and
// message counters of run's partitions on it (+1 so nodes with no
// statistics yet still count), computed in one pass so planners don't
// rebuild the partition index per lookup. Between jobs (run nil) there
// is nothing to weigh and the nodes are all alike.
func (c *Coordinator) nodeLoadsLocked(run *jobRun) map[string]int64 {
	n := len(c.nodes)
	loads := make(map[string]int64, n)
	if n == 0 {
		return loads
	}
	for _, id := range c.nodes {
		loads[string(id)] = 1
	}
	if run == nil {
		return loads
	}
	total := totalParts(n*c.cfg.PartitionsPerNode, run.splits)
	for p := 0; p < total; p++ {
		loads[string(c.nodes[p%n])] += run.partLoad[p]
	}
	return loads
}

// planScaleOut picks the nodes a joining worker takes over: its fair
// share of the node count, chosen heaviest-first (per-partition
// vertex+message counters) from the donors currently above the
// post-join fair share, so the migration equalizes observed load and
// node counts at once. Returns nil when there is nothing to give (more
// workers than nodes).
func (c *Coordinator) planScaleOut(joiner *ccWorker, run *jobRun) []nodeMove {
	c.mu.Lock()
	defer c.mu.Unlock()
	type donor struct {
		w     *ccWorker
		nodes []string
	}
	var donors []*donor
	total := 0
	for _, w := range c.workers {
		if w.dead() {
			continue
		}
		donors = append(donors, &donor{w: w, nodes: append([]string(nil), w.owned...)})
		total += len(w.owned)
	}
	if len(donors) == 0 {
		return nil
	}
	share := total / (len(donors) + 1)
	loads := c.nodeLoadsLocked(run)
	var moves []nodeMove
	for k := 0; k < share; k++ {
		// Donor: above the fair floor, highest load first.
		var best *donor
		var bestLoad int64
		for _, d := range donors {
			if len(d.nodes) <= share {
				continue
			}
			var load int64
			for _, id := range d.nodes {
				load += loads[id]
			}
			if best == nil || load > bestLoad {
				best, bestLoad = d, load
			}
		}
		if best == nil {
			break
		}
		// Node: the donor's heaviest.
		bi, bl := 0, int64(-1)
		for i, id := range best.nodes {
			if l := loads[id]; l > bl {
				bi, bl = i, l
			}
		}
		moves = append(moves, nodeMove{node: best.nodes[bi], from: best.w, to: joiner})
		best.nodes = append(best.nodes[:bi], best.nodes[bi+1:]...)
	}
	sort.Slice(moves, func(i, j int) bool { return moves[i].node < moves[j].node })
	return moves
}

// planDrain assigns each of a departing worker's nodes (heaviest first)
// to the currently least-loaded remaining worker.
func (c *Coordinator) planDrain(d *ccWorker, targets []*ccWorker, run *jobRun) []nodeMove {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodeLoad := c.nodeLoadsLocked(run)
	loads := make(map[*ccWorker]int64, len(targets))
	for _, w := range targets {
		for _, id := range w.owned {
			loads[w] += nodeLoad[id]
		}
	}
	ordered := append([]string(nil), d.owned...)
	sort.Slice(ordered, func(i, j int) bool {
		if nodeLoad[ordered[i]] != nodeLoad[ordered[j]] {
			return nodeLoad[ordered[i]] > nodeLoad[ordered[j]]
		}
		return ordered[i] < ordered[j]
	})
	var moves []nodeMove
	for _, id := range ordered {
		best := targets[0]
		for _, w := range targets[1:] {
			if loads[w] < loads[best] {
				best = w
			}
		}
		moves = append(moves, nodeMove{node: id, from: d, to: best})
		loads[best] += nodeLoad[id]
	}
	return moves
}

// movement starts the elasticity-log entry of a planned migration: its
// kind, whose it is, the nodes changing hands and the open job (if any)
// they are carried across.
func movement(kind, worker string, moves []nodeMove, run *jobRun) RebalanceEvent {
	ev := RebalanceEvent{Kind: kind, Worker: worker}
	for _, m := range moves {
		ev.Nodes = append(ev.Nodes, m.node)
	}
	if run != nil {
		ev.Job = run.name
	}
	return ev
}

// failed turns a movement's log entry into that of its refusal at the
// given stage: "drain" fails as "drain-failed", "scale-out" as
// "scale-failed".
func (ev RebalanceEvent) failed(stage string, err error) RebalanceEvent {
	ev.Kind = strings.TrimSuffix(ev.Kind, "-out") + "-failed"
	ev.Detail = fmt.Sprintf("%s: %v (cluster unchanged)", stage, err)
	return ev
}

// scaleOut absorbs one elastic joiner: complete its held-open handshake
// with its planned node set, then move those nodes onto it (moveNodes).
// Nothing is committed until the data has landed, so a joiner dying
// anywhere before the flip leaves the cluster untouched; only a member
// dying escalates to failure recovery.
func (c *Coordinator) scaleOut(ctx context.Context, sp *ccWorker, run *jobRun) error {
	start := time.Now()
	moves := c.planScaleOut(sp, run)
	ev := movement("scale-out", sp.ctrl.RemoteAddr(), moves, run)
	if len(moves) == 0 {
		// Nothing to give (more workers than nodes): keep the joiner as
		// a plain standby — still useful to failure recovery.
		c.mu.Lock()
		sp.elastic = false
		c.spares = append(c.spares, sp)
		c.mu.Unlock()
		ev.Kind, ev.Detail = "scale-refused", "no nodes to migrate (workers ≥ nodes); parked as standby"
		c.recordRebalance(ev)
		return nil
	}
	if err := c.startSpare(ctx, sp, ev.Nodes, run.beginMsg()); err != nil {
		sp.ctrl.Close()
		c.recordRebalance(ev.failed("handshake", err))
		return nil
	}
	migrated, committed, err := c.moveNodes(ctx, run, ev, moves, nil)
	if !committed {
		sp.ctrl.Close() // it hosts nothing and has left the spare list
	}
	if err != nil || !committed {
		return err
	}
	ev.Partitions, ev.Duration = migrated, time.Since(start)
	ev.Detail = fmt.Sprintf("joined; now %d workers", c.Workers())
	c.recordRebalance(ev)
	return nil
}

// drainWorker empties one draining worker: its nodes move to the
// remaining workers (moveNodes), and the worker is released to exit. A
// drain that would leave no workers is refused (recorded, flag
// cleared). A non-nil error means a worker died mid-migration and the
// caller must run failure recovery.
func (c *Coordinator) drainWorker(ctx context.Context, d *ccWorker, run *jobRun) error {
	start := time.Now()
	addr := d.ctrl.RemoteAddr()
	var targets []*ccWorker
	for _, w := range c.members() {
		if w != d && !w.dead() {
			targets = append(targets, w)
		}
	}
	if len(targets) == 0 {
		d.draining.Store(false)
		c.recordRebalance(RebalanceEvent{Kind: "drain-refused", Worker: addr, Nodes: append([]string(nil), d.owned...),
			Detail: "last live worker — start another worker first"})
		return nil
	}
	moves := c.planDrain(d, targets, run)
	ev := movement("drain", addr, moves, run)
	migrated, committed, err := c.moveNodes(ctx, run, ev, moves, d)
	if !committed && err == nil {
		d.draining.Store(false) // refused: re-request the drain to retry
	}
	if err != nil || !committed {
		return err
	}

	// Release: the worker may exit cleanly; closing the connection
	// afterwards stops its heartbeat monitor without a worker-lost event
	// (it is no longer in the active set).
	relCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := d.call(relCtx, rpcRelease, struct{}{}, nil); err != nil {
		c.cfg.logf("coordinator: releasing drained worker %s: %v", addr, err)
	}
	cancel()
	d.ctrl.Close()
	ev.Partitions, ev.Duration = migrated, time.Since(start)
	ev.Detail = fmt.Sprintf("released; now %d workers", c.Workers())
	c.recordRebalance(ev)
	return nil
}

// relieveWorker lightens a straggling worker at a superstep boundary:
// its single heaviest node moves to the least-loaded other worker
// (moveNodes), but the worker itself stays active with the rest of its
// nodes. Called by the adaptive runtime (adaptive.go) when a worker's
// superstep time keeps exceeding the phase median. Returns whether the
// relief committed; a non-nil error means a worker died mid-migration
// and the caller must run failure recovery.
func (c *Coordinator) relieveWorker(ctx context.Context, run *jobRun, addr string) (bool, error) {
	start := time.Now()
	c.mu.Lock()
	var slow, tgt *ccWorker
	var tgtLoad int64
	loads := c.nodeLoadsLocked(run)
	for _, w := range c.workers {
		if w.dead() {
			continue
		}
		if w.ctrl.RemoteAddr() == addr {
			slow = w
			continue
		}
		var l int64
		for _, id := range w.owned {
			l += loads[id]
		}
		if tgt == nil || l < tgtLoad {
			tgt, tgtLoad = w, l
		}
	}
	if slow == nil || len(slow.owned) < 2 || tgt == nil {
		c.mu.Unlock()
		return false, nil // nothing it can shed, or nowhere to shed to
	}
	pick := slow.owned[0]
	for _, id := range slow.owned[1:] {
		if loads[id] > loads[pick] {
			pick = id
		}
	}
	c.mu.Unlock()

	moves := []nodeMove{{node: pick, from: slow, to: tgt}}
	ev := movement("relief", addr, moves, run)
	migrated, committed, err := c.moveNodes(ctx, run, ev, moves, nil)
	if err != nil || !committed {
		return false, err
	}
	ev.Partitions, ev.Duration = migrated, time.Since(start)
	ev.Detail = fmt.Sprintf("heaviest node moved to %s", tgt.ctrl.RemoteAddr())
	c.recordRebalance(ev)
	return true, nil
}
