package core

import (
	"context"
	"fmt"
	"sort"
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
		c.reapDead()
		if err := c.repairTopology(ctx, nil); err != nil {
			c.cfg.logf("coordinator: idle topology repair: %v", err)
		} else if err := c.rebalance(ctx, nil); err != nil {
			c.cfg.logf("coordinator: idle rebalance: %v", err)
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

// partsOfNodesLocked expands node IDs to the partition indexes they
// host (partition i lives on node i%N, the same deterministic placement
// every runState computes).
func (c *Coordinator) partsOfNodesLocked(ids []string) []int {
	n := len(c.nodes)
	if n == 0 {
		return nil
	}
	idx := make(map[string]int, n)
	for i, id := range c.nodes {
		idx[string(id)] = i
	}
	total := totalParts(n*c.cfg.PartitionsPerNode, c.splits)
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

func (c *Coordinator) partsOfNodes(ids []string) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.partsOfNodesLocked(ids)
}

// nodeLoadsLocked weighs every cluster node by its partitions' latest
// vertex and message counters (+1 so nodes with no statistics yet still
// count), computed in one pass so planners don't rebuild the partition
// index per lookup.
func (c *Coordinator) nodeLoadsLocked() map[string]int64 {
	n := len(c.nodes)
	loads := make(map[string]int64, n)
	if n == 0 {
		return loads
	}
	for _, id := range c.nodes {
		loads[string(id)] = 1
	}
	total := totalParts(n*c.cfg.PartitionsPerNode, c.splits)
	for p := 0; p < total; p++ {
		loads[string(c.nodes[p%n])] += c.partLoad[p]
	}
	return loads
}

// planScaleOut picks the nodes a joining worker takes over: its fair
// share of the node count, chosen heaviest-first (per-partition
// vertex+message counters) from the donors currently above the
// post-join fair share, so the migration equalizes observed load and
// node counts at once. Returns nil when there is nothing to give (more
// workers than nodes).
func (c *Coordinator) planScaleOut() map[*ccWorker][]string {
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
	if share == 0 {
		return nil
	}
	loads := c.nodeLoadsLocked()
	moves := make(map[*ccWorker][]string)
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
		moves[best.w] = append(moves[best.w], best.nodes[bi])
		best.nodes = append(best.nodes[:bi], best.nodes[bi+1:]...)
	}
	if len(moves) == 0 {
		return nil
	}
	return moves
}

// planDrain assigns each of a departing worker's nodes (heaviest first)
// to the currently least-loaded remaining worker.
func (c *Coordinator) planDrain(nodes []string, targets []*ccWorker) map[*ccWorker][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodeLoad := c.nodeLoadsLocked()
	loads := make(map[*ccWorker]int64, len(targets))
	for _, w := range targets {
		for _, id := range w.owned {
			loads[w] += nodeLoad[id]
		}
	}
	ordered := append([]string(nil), nodes...)
	sort.Slice(ordered, func(i, j int) bool {
		if nodeLoad[ordered[i]] != nodeLoad[ordered[j]] {
			return nodeLoad[ordered[i]] > nodeLoad[ordered[j]]
		}
		return ordered[i] < ordered[j]
	})
	assign := make(map[*ccWorker][]string)
	for _, id := range ordered {
		var best *ccWorker
		for _, w := range targets {
			if best == nil || loads[w] < loads[best] {
				best = w
			}
		}
		assign[best] = append(assign[best], id)
		loads[best] += nodeLoad[id]
	}
	return assign
}

// scaleOut absorbs one elastic joiner: complete its held-open handshake
// with its planned node set, migrate those nodes' partition state into
// it (when a job session is open), then commit ownership + routing and
// broadcast the new topology. Nothing is committed until the data has
// landed, so a joiner dying anywhere before the flip leaves the cluster
// untouched; only a *donor* dying escalates to failure recovery.
func (c *Coordinator) scaleOut(ctx context.Context, sp *ccWorker, run *jobRun) error {
	start := time.Now()
	addr := sp.ctrl.RemoteAddr()
	moves := c.planScaleOut()
	if len(moves) == 0 {
		// Nothing to give (more workers than nodes): keep the joiner as
		// a plain standby — still useful to failure recovery.
		c.mu.Lock()
		sp.elastic = false
		c.spares = append(c.spares, sp)
		c.mu.Unlock()
		c.recordRebalance(RebalanceEvent{Kind: "scale-refused", Worker: addr,
			Detail: "no nodes to migrate (workers ≥ nodes); parked as standby"})
		return nil
	}
	var movedNodes []string
	for _, ns := range moves {
		movedNodes = append(movedNodes, ns...)
	}
	sort.Strings(movedNodes)

	abandon := func(stage string, err error) {
		sp.ctrl.Close()
		c.recordRebalance(RebalanceEvent{Kind: "scale-failed", Worker: addr, Nodes: movedNodes,
			Detail: fmt.Sprintf("%s: %v (cluster unchanged)", stage, err)})
	}

	if err := c.startSpare(ctx, sp, movedNodes, run.beginMsg()); err != nil {
		abandon("handshake", err)
		return nil
	}

	var migrated int
	if run != nil {
		var imgs []ckptPartData
		for donor, ns := range moves {
			parts := c.partsOfNodes(ns)
			var rep partSendReply
			if err := donor.call(ctx, rpcPartSend, partSendMsg{Name: run.name, Parts: parts}, &rep); err != nil {
				if donor.dead() {
					return fmt.Errorf("core: donor %s died during migration: %w", donor.ctrl.RemoteAddr(), err)
				}
				abandon("partition.send", err)
				return nil
			}
			imgs = append(imgs, rep.Parts...)
		}
		recv := partRecvMsg{Name: run.name, Attempt: run.attempt + 1, Parts: imgs, Splits: c.currentSplits()}
		if err := sp.call(ctx, rpcPartRecv, recv, nil); err != nil {
			abandon("partition.recv", err)
			return nil
		}
		migrated = len(imgs)
	}

	// Commit: ownership and routing flip, the joiner becomes active.
	c.mu.Lock()
	for donor, ns := range moves {
		kept := donor.owned[:0]
		drop := make(map[string]bool, len(ns))
		for _, id := range ns {
			drop[id] = true
		}
		for _, id := range donor.owned {
			if !drop[id] {
				kept = append(kept, id)
			}
		}
		donor.owned = kept
	}
	sp.owned = append([]string(nil), movedNodes...)
	for _, id := range movedNodes {
		c.peers[id] = sp.dataAddr
	}
	c.workers = append(c.workers, sp)
	c.mu.Unlock()
	go c.monitor(sp)

	if err := c.broadcastTopology(ctx, run.purgeNames()); err != nil {
		return err
	}

	// Reclaim the migrated originals on the donors and open the new
	// recovery epoch, so resumed supersteps cannot meet stragglers.
	var job string
	if run != nil {
		job = run.name
		for donor, ns := range moves {
			if err := donor.call(ctx, rpcPartDrop, partDropMsg{Name: run.name, Parts: c.partsOfNodes(ns)}, nil); err != nil {
				if donor.dead() {
					return fmt.Errorf("core: donor %s died reclaiming migrated partitions: %w", donor.ctrl.RemoteAddr(), err)
				}
				c.cfg.logf("coordinator: partition.drop on %s: %v", donor.ctrl.RemoteAddr(), err)
			}
		}
		run.attempt++
		run.stats.Rebalances++
	}
	c.shipped = make(map[string]uint64) // the joiner has none of the replicated inputs
	c.recordRebalance(RebalanceEvent{
		Kind: "scale-out", Worker: addr, Nodes: movedNodes,
		Partitions: migrated, Job: job, Duration: time.Since(start),
		Detail: fmt.Sprintf("joined; now %d workers", c.Workers()),
	})
	return nil
}

// drainWorker empties one draining worker: its partitions migrate to
// the remaining workers, the topology is rebroadcast without it, and
// the worker is released to exit. A drain that would leave no workers
// is refused (recorded, flag cleared). A non-nil error means a worker
// died mid-migration and the caller must run failure recovery.
func (c *Coordinator) drainWorker(ctx context.Context, d *ccWorker, run *jobRun) error {
	start := time.Now()
	addr := d.ctrl.RemoteAddr()
	c.mu.Lock()
	var targets []*ccWorker
	for _, w := range c.workers {
		if w != d && !w.dead() {
			targets = append(targets, w)
		}
	}
	nodes := append([]string(nil), d.owned...)
	c.mu.Unlock()
	if len(targets) == 0 {
		d.draining.Store(false)
		c.recordRebalance(RebalanceEvent{Kind: "drain-refused", Worker: addr, Nodes: nodes,
			Detail: "last live worker — start another worker first"})
		return nil
	}
	assign := c.planDrain(nodes, targets)

	var migrated int
	var job string
	if run != nil && len(nodes) > 0 {
		job = run.name
		var rep partSendReply
		if err := d.call(ctx, rpcPartSend, partSendMsg{Name: run.name, Parts: c.partsOfNodes(nodes)}, &rep); err != nil {
			if d.dead() {
				return fmt.Errorf("core: draining worker %s died mid-migration: %w", addr, err)
			}
			d.draining.Store(false)
			c.recordRebalance(RebalanceEvent{Kind: "drain-failed", Worker: addr,
				Detail: fmt.Sprintf("partition.send: %v (cluster unchanged)", err)})
			return nil
		}
		byPart := make(map[int]ckptPartData, len(rep.Parts))
		for _, pd := range rep.Parts {
			byPart[pd.Part] = pd
		}
		// installed tracks targets that already accepted images, so an
		// abort can reclaim the copies instead of stranding them until
		// job.end.
		installed := make(map[*ccWorker][]int)
		abortDrain := func(stage string, err error) {
			for w, parts := range installed {
				if derr := w.call(ctx, rpcPartDrop, partDropMsg{Name: run.name, Parts: parts}, nil); derr != nil {
					c.cfg.logf("coordinator: reclaiming aborted drain images on %s: %v", w.ctrl.RemoteAddr(), derr)
				}
			}
			d.draining.Store(false)
			c.recordRebalance(RebalanceEvent{Kind: "drain-failed", Worker: addr,
				Detail: fmt.Sprintf("%s: %v (cluster unchanged; re-request the drain to retry)", stage, err)})
		}
		for _, w := range targets {
			ns := assign[w]
			if len(ns) == 0 {
				continue
			}
			msg := partRecvMsg{Name: run.name, Attempt: run.attempt + 1, Splits: c.currentSplits()}
			parts := c.partsOfNodes(ns)
			for _, p := range parts {
				pd, ok := byPart[p]
				if !ok {
					return fmt.Errorf("core: drain of %s: no image for partition %d", addr, p)
				}
				msg.Parts = append(msg.Parts, pd)
			}
			if err := w.call(ctx, rpcPartRecv, msg, nil); err != nil {
				if w.dead() {
					return fmt.Errorf("core: drain target %s died during migration: %w", w.ctrl.RemoteAddr(), err)
				}
				abortDrain(fmt.Sprintf("partition.recv on %s", w.ctrl.RemoteAddr()), err)
				return nil
			}
			installed[w] = parts
		}
		migrated = len(rep.Parts)
	}

	// Commit: targets take ownership; d leaves the active set.
	c.mu.Lock()
	for w, ns := range assign {
		w.owned = append(w.owned, ns...)
		for _, id := range ns {
			c.peers[id] = w.dataAddr
		}
	}
	kept := c.workers[:0]
	for _, w := range c.workers {
		if w != d {
			kept = append(kept, w)
		}
	}
	c.workers = kept
	c.mu.Unlock()

	if err := c.broadcastTopology(ctx, run.purgeNames()); err != nil {
		return err
	}
	if run != nil {
		run.attempt++
		run.stats.Rebalances++
	}
	c.shipped = make(map[string]uint64)

	// Release: the worker may exit cleanly; closing the connection
	// afterwards stops its heartbeat monitor without a worker-lost event
	// (it is no longer in the active set).
	relCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := d.call(relCtx, rpcRelease, struct{}{}, nil); err != nil {
		c.cfg.logf("coordinator: releasing drained worker %s: %v", addr, err)
	}
	cancel()
	d.ctrl.Close()
	c.recordRebalance(RebalanceEvent{
		Kind: "drain", Worker: addr, Nodes: nodes,
		Partitions: migrated, Job: job, Duration: time.Since(start),
		Detail: fmt.Sprintf("released; now %d workers", c.Workers()),
	})
	return nil
}

// relieveWorker lightens a straggling worker at a superstep boundary:
// its single heaviest node migrates to the least-loaded other worker
// through the same image-migration machinery a drain uses, but the
// worker itself stays active with the rest of its nodes. Called by the
// adaptive runtime (adaptive.go) when a worker's superstep time keeps
// exceeding the phase median. Returns whether the relief committed; a
// non-nil error means a worker died mid-migration and the caller must
// run failure recovery.
func (c *Coordinator) relieveWorker(ctx context.Context, run *jobRun, addr string) (bool, error) {
	start := time.Now()
	c.mu.Lock()
	var slow *ccWorker
	var targets []*ccWorker
	for _, w := range c.workers {
		if w.dead() {
			continue
		}
		if w.ctrl.RemoteAddr() == addr {
			slow = w
		} else {
			targets = append(targets, w)
		}
	}
	if slow == nil || len(slow.owned) < 2 || len(targets) == 0 {
		c.mu.Unlock()
		return false, nil // nothing it can shed, or nowhere to shed to
	}
	loads := c.nodeLoadsLocked()
	pick := slow.owned[0]
	for _, id := range slow.owned[1:] {
		if loads[id] > loads[pick] {
			pick = id
		}
	}
	var tgt *ccWorker
	var tgtLoad int64
	for _, w := range targets {
		var l int64
		for _, id := range w.owned {
			l += loads[id]
		}
		if tgt == nil || l < tgtLoad {
			tgt, tgtLoad = w, l
		}
	}
	parts := c.partsOfNodesLocked([]string{pick})
	c.mu.Unlock()

	abort := func(stage string, err error) {
		c.recordRebalance(RebalanceEvent{Kind: "relief-failed", Worker: addr, Nodes: []string{pick},
			Detail: fmt.Sprintf("%s: %v (cluster unchanged)", stage, err)})
	}

	// Migrate the node's partition images; nothing commits until they
	// have landed on the target.
	var rep partSendReply
	if err := slow.call(ctx, rpcPartSend, partSendMsg{Name: run.name, Parts: parts}, &rep); err != nil {
		if slow.dead() {
			return false, fmt.Errorf("core: straggler %s died during relief imaging: %w", addr, err)
		}
		abort("partition.send", err)
		return false, nil
	}
	recv := partRecvMsg{Name: run.name, Attempt: run.attempt + 1,
		Parts: rep.Parts, Splits: c.currentSplits()}
	if err := tgt.call(ctx, rpcPartRecv, recv, nil); err != nil {
		if tgt.dead() {
			return false, fmt.Errorf("core: relief target %s died during migration: %w", tgt.ctrl.RemoteAddr(), err)
		}
		abort(fmt.Sprintf("partition.recv on %s", tgt.ctrl.RemoteAddr()), err)
		return false, nil
	}

	// Commit: ownership and routing flip under the bumped epoch.
	c.mu.Lock()
	kept := slow.owned[:0]
	for _, id := range slow.owned {
		if id != pick {
			kept = append(kept, id)
		}
	}
	slow.owned = kept
	tgt.owned = append(tgt.owned, pick)
	c.peers[pick] = tgt.dataAddr
	c.mu.Unlock()
	if err := c.broadcastTopology(ctx, run.purgeNames()); err != nil {
		return false, err
	}
	run.attempt++
	run.stats.Rebalances++
	c.shipped = make(map[string]uint64)
	if err := slow.call(ctx, rpcPartDrop, partDropMsg{Name: run.name, Parts: parts}, nil); err != nil {
		// Stale copies on the straggler cost memory until job.end, not
		// correctness (the bumped epoch keeps them out of every phase).
		c.cfg.logf("coordinator: dropping relieved partitions on %s: %v", addr, err)
	}
	c.recordRebalance(RebalanceEvent{
		Kind: "relief", Worker: addr, Nodes: []string{pick},
		Partitions: len(rep.Parts), Job: run.name, Duration: time.Since(start),
		Detail: fmt.Sprintf("heaviest node moved to %s", tgt.ctrl.RemoteAddr()),
	})
	return true, nil
}
