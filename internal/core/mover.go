package core

// The partition-image mover. The paper's fault-tolerance primitive is
// "snapshot the Vertex and Msg relations at a superstep boundary, reload
// them somewhere else"; every movement of partition state in the cluster
// is that primitive with a different source and destination:
//
//	checkpoint   every member's partitions  →  the checkpoint store
//	restore      the checkpoint store       →  every member, after a reset
//	migration    a donor's partitions       →  another worker (scale-out,
//	                                           drain, straggler relief)
//	split        one partition, re-hashed   →  its children's owners
//	delta clone  a sealed version's holder  →  the partition's current owner
//
// The coordinator moves them all with the three helpers below, the only
// issuers of the three image verbs: imageParts (partition.send),
// installParts (partition.recv) and dropParts (partition.drop). The
// migrations additionally share moveNodes — image → install → commit →
// reconfigure → drop, with one set of abort, reclaim, escalate and epoch
// rules — and keep only their planning on top of it (rebalance.go). The
// store side of checkpoint and restore is the checkpoint writer and
// reader the single-process runtime uses too (checkpoint.go).

import (
	"context"
	"fmt"
	"io"
	"maps"
	"slices"
	"time"
)

// members snapshots the active worker set.
func (c *Coordinator) members() []*ccWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*ccWorker(nil), c.workers...)
}

// partitionOwners returns the member hosting each of the first n
// partitions: partition i lives on node i%N — the deterministic
// round-robin placement every runState computes (assignPartitions,
// applySplits) — and a node on the one worker that owns it.
func (c *Coordinator) partitionOwners(n int) ([]*ccWorker, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.nodes) == 0 {
		return nil, fmt.Errorf("no cluster topology")
	}
	hostOf := make(map[string]*ccWorker, len(c.nodes))
	for _, w := range c.workers {
		for _, id := range w.owned {
			hostOf[id] = w
		}
	}
	owners := make([]*ccWorker, n)
	for i := range owners {
		node := string(c.nodes[i%len(c.nodes)])
		if owners[i] = hostOf[node]; owners[i] == nil || owners[i].dead() {
			return nil, fmt.Errorf("partition %d's node %s has no live owner", i, node)
		}
	}
	return owners, nil
}

// imageParts has each listed worker image the partitions its message
// names (partition.send), in parallel, and returns the images by
// partition. job, when set, is the open job whose in-flight imaging a
// first failure cancels everywhere.
func (c *Coordinator) imageParts(ctx context.Context, job string, from map[*ccWorker]partSendMsg) (map[int]*ckptPartData, error) {
	reps, err := phaseCallTo[partSendReply](ctx, c, slices.Collect(maps.Keys(from)), job, rpcPartSend,
		func(w *ccWorker) any { return from[w] })
	if err != nil {
		return nil, err
	}
	imgs := make(map[int]*ckptPartData)
	for i := range reps {
		for j := range reps[i].Parts {
			pd := &reps[i].Parts[j]
			if imgs[pd.Part] != nil {
				return nil, fmt.Errorf("two workers imaged partition %d", pd.Part)
			}
			imgs[pd.Part] = pd
		}
	}
	return imgs, nil
}

// installParts ships each listed worker the images of the partitions
// listed for it (partition.recv), in parallel. msg is what every
// receiver is told besides — the job, the epoch and split list to adopt
// first, whether to reset — and a worker listed with no partitions is
// told only that.
func (c *Coordinator) installParts(ctx context.Context, msg partRecvMsg, to map[*ccWorker][]int, imgs map[int]*ckptPartData) error {
	msgs := make(map[*ccWorker]*partRecvMsg, len(to))
	for w, parts := range to {
		m := msg
		for _, p := range parts {
			if imgs[p] == nil {
				return fmt.Errorf("no image for partition %d", p)
			}
			m.Parts = append(m.Parts, *imgs[p])
		}
		msgs[w] = &m
	}
	_, err := phaseCallTo[struct{}](ctx, c, slices.Collect(maps.Keys(msgs)), msg.Name, rpcPartRecv,
		func(w *ccWorker) any { return msgs[w] })
	return err
}

// dropParts reclaims partition copies (partition.drop), best effort: a
// copy left behind costs its holder memory until job.end, never
// correctness — no phase runs on a partition its worker does not own.
func (c *Coordinator) dropParts(ctx context.Context, job string, at map[*ccWorker][]int) {
	if _, err := phaseCallTo[struct{}](ctx, c, slices.Collect(maps.Keys(at)), "", rpcPartDrop, func(w *ccWorker) any {
		return partDropMsg{Name: job, Parts: at[w]}
	}); err != nil {
		c.cfg.logf("coordinator: partition.drop for %s: %v", job, err)
	}
}

// restoreRun rewinds every worker to run's last checkpoint under epoch
// attempt: the checkpoint reader reads the images from the store (after
// repair, if any), then partition.recv {reset} ships each owner its
// partitions' images at the manifest's split level — and resets a worker
// that owns none too. The run adopts the manifest in rewindTo.
func (c *Coordinator) restoreRun(ctx context.Context, run *jobRun, attempt int64, repair func(*checkpointManifest) error) (*checkpointManifest, error) {
	imgs := make(map[int]*ckptPartData)
	m, err := restoreCheckpoint(ctx, c.ckpt, run, repair, func(p int, st partStat, vertex, msg io.Reader) error {
		pd := &ckptPartData{Part: p, Stats: st}
		var err error
		if pd.Vertex, err = io.ReadAll(vertex); err == nil {
			pd.Msg, err = io.ReadAll(msg)
		}
		imgs[p] = pd
		return err
	})
	if err != nil {
		return nil, err
	}
	owners, err := c.partitionOwners(m.Partitions)
	if err == nil {
		to := make(map[*ccWorker][]int)
		for _, w := range c.members() {
			to[w] = nil
		}
		for p, w := range owners {
			to[w] = append(to[w], p)
		}
		err = c.installParts(ctx, partRecvMsg{Name: run.name, Attempt: attempt, Splits: m.Splits, Reset: true}, to, imgs)
	}
	if err != nil {
		return nil, fmt.Errorf("core: restore of %s: %w", run.name, err)
	}
	return m, nil
}

// nodeMove is one node changing hands in a migration: its partitions'
// state goes from the worker that hosts it to the one that will.
type nodeMove struct {
	node     string
	from, to *ccWorker
}

// moveNodes is the one migration: it carries out a planned list of node
// moves at a safe boundary (caller holds jobMu; no phase is in flight).
// run is the open job the moves are carried across (nil between jobs,
// when there is no partition state and only ownership moves); ev names
// the movement in the event log, begun at start; leaving, if set, is a
// member the moves empty, which leaves the membership at the commit.
//
//  1. image the moving nodes' partitions at their donors;
//  2. install the images at their receivers, under epoch attempt+1 and
//     the current split list. Nothing is committed until the data has
//     landed, so up to here a refusal — a donor or receiver answering
//     with an error, a receiver that is not yet a member dying — aborts
//     with the cluster unchanged: every receiver that was sent an
//     install is sent a drop for it, ev.failed is recorded, and
//     (false, nil) returned. A member's death instead returns the
//     error, for the driver's checkpoint recovery;
//  3. commit: owned sets and peer routing flip under c.mu, a receiver
//     that is not yet a member becomes one, leaving stops being one,
//     and ev is recorded in the same hold, with the partitions migrated,
//     its duration up to here and "; now N workers" after its detail, so
//     that no reader sees the new membership without its event;
//  4. broadcast the topology, purging the job's parked wire streams;
//  5. drop the migrated originals on the donors that remain members;
//  6. open the next epoch (attempt++), so resumed supersteps compile
//     fresh spec names and cannot meet stragglers of the old topology.
//
// It returns whether the commit happened.
func (c *Coordinator) moveNodes(ctx context.Context, run *jobRun, ev Event, start time.Time, moves []nodeMove, leaving *ccWorker) (bool, error) {
	var donated map[*ccWorker][]int
	migrated := 0
	if run != nil && len(moves) > 0 {
		send := make(map[*ccWorker]partSendMsg)
		recv := make(map[*ccWorker][]int)
		donated = make(map[*ccWorker][]int)
		c.mu.Lock()
		for _, m := range moves {
			parts := c.partsOfNodesLocked(run, []string{m.node})
			donated[m.from] = append(donated[m.from], parts...)
			recv[m.to] = append(recv[m.to], parts...)
			migrated += len(parts)
		}
		c.mu.Unlock()
		for w, parts := range donated {
			send[w] = partSendMsg{Name: run.name, Parts: parts}
		}
		stage := "partition.send"
		imgs, err := c.imageParts(ctx, run.name, send)
		if err == nil {
			stage = "partition.recv"
			if err = c.installParts(ctx, partRecvMsg{Name: run.name, Attempt: run.attempt + 1, Splits: run.splits}, recv, imgs); err != nil {
				c.dropParts(ctx, run.name, recv)
			}
		}
		if err != nil {
			if c.anyWorkerDead() {
				return false, fmt.Errorf("core: worker died during %s migration (%s): %w", ev.Kind, stage, err)
			}
			c.record(ev.failed(stage, err))
			return false, nil
		}
	}

	c.mu.Lock()
	for _, m := range moves {
		m.from.owned = slices.DeleteFunc(m.from.owned, func(id string) bool { return id == m.node })
		if !slices.Contains(c.workers, m.to) {
			c.admitLocked(m.to)
		}
		m.to.owned = append(m.to.owned, m.node)
		c.peers[m.node] = m.to.dataAddr
	}
	if leaving != nil {
		c.workers = slices.DeleteFunc(c.workers, func(w *ccWorker) bool { return w == leaving })
		delete(donated, leaving)
	}
	ev.Partitions, ev.Duration = migrated, time.Since(start)
	ev.Detail += fmt.Sprintf("; now %d workers", c.liveWorkersLocked())
	ev = c.recordLocked(ev)
	c.mu.Unlock()
	c.cfg.logf("coordinator: %s", ev)

	if err := c.broadcastTopology(ctx, run.purgeNames()); err != nil {
		return true, err
	}
	if run != nil {
		c.dropParts(ctx, run.name, donated)
		run.attempt++
		run.stats.Rebalances++
	}
	return true, nil
}

// admitLocked makes a started spare a member (caller holds jobMu and
// c.mu, and sets what the worker owns). A process that was not a member
// has none of the replicated inputs, so this — and nothing else — makes
// the next submission ship its input again.
func (c *Coordinator) admitLocked(w *ccWorker) {
	c.workers = append(c.workers, w)
	c.shipped = make(map[string]uint64)
	go c.monitor(w)
}
