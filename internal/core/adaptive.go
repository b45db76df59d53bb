package core

// The adaptive runtime: a stats-driven feedback loop on the cluster
// controller. Every committed superstep already merges per-partition
// vertex/message counters and per-worker phase timings; the advisor
// consumes them with two actuators (the join is not one of them: every
// run plans it by chooseJoinFor, adaptive or not):
//
//   - Hot-partition splitting: when one partition's vertex+message
//     share exceeds a skew threshold, it is re-hashed into child
//     partitions at the next superstep boundary (split.go) — the one
//     skew the whole-partition rebalancer can never fix.
//   - Straggler relief: a worker whose superstep wall time exceeds k×
//     the phase median for j consecutive supersteps has its heaviest
//     node migrated off through the elastic migration machinery
//     (relieveWorker, rebalance.go). Patience, a relief cooldown, and
//     streak resets provide the hysteresis that keeps a relieved — or
//     merely jittery — worker from being flapped.
//
// Every decision is logged as an AdaptiveEvent, surfaced by the serve
// API's /stats view.

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// AdaptiveOptions tunes the coordinator's runtime-stats feedback loop.
// The zero value disables it; Enabled with zeroed knobs uses defaults.
type AdaptiveOptions struct {
	// Enabled turns the adaptive runtime on.
	Enabled bool
	// SplitFactor is the number of child partitions a hot partition is
	// re-hashed into (default 4).
	SplitFactor int
	// SplitSkewFactor is the skew trigger: split the heaviest partition
	// when its vertex+message load exceeds this multiple of the mean
	// partition load (default 2.0).
	SplitSkewFactor float64
	// SplitMinLoad suppresses splits of partitions lighter than this
	// (default 4096 vertices+messages): tiny skews are not worth the
	// migration.
	SplitMinLoad int64
	// MaxSplits bounds the splits committed per job run (default 2).
	MaxSplits int
	// StragglerRatio (k) and StragglerPatience (j): a worker is flagged
	// when its superstep time exceeds k× the phase median for j
	// consecutive supersteps (defaults 2.0 and 3).
	StragglerRatio    float64
	StragglerPatience int
	// ReliefCooldown is the minimum number of supersteps between two
	// relief migrations (default 8) — the hysteresis that prevents
	// flapping.
	ReliefCooldown int64
}

// withDefaults fills zero knobs with the defaults above.
func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.SplitFactor <= 1 {
		o.SplitFactor = 4
	}
	if o.SplitSkewFactor <= 0 {
		o.SplitSkewFactor = 2.0
	}
	if o.SplitMinLoad <= 0 {
		o.SplitMinLoad = 4096
	}
	if o.MaxSplits <= 0 {
		o.MaxSplits = 2
	}
	if o.StragglerRatio <= 0 {
		o.StragglerRatio = 2.0
	}
	if o.StragglerPatience <= 0 {
		o.StragglerPatience = 3
	}
	if o.ReliefCooldown <= 0 {
		o.ReliefCooldown = 8
	}
	return o
}

// AdaptiveEvent records one advisor decision, surfaced through the
// serve API (/stats) so operators can see what the runtime adapted.
type AdaptiveEvent struct {
	Time time.Time `json:"time"`
	// Kind is "plan-switch" (the planner changed the join: logged, not
	// decided, by the advisor), "split", "split-failed" or "relief".
	Kind string `json:"kind"`
	// Job is the execution the decision applied to; Superstep the
	// boundary it fired at.
	Job       string `json:"job,omitempty"`
	Superstep int64  `json:"superstep,omitempty"`
	// Plan/PrevPlan describe a plan switch.
	Plan     string `json:"plan,omitempty"`
	PrevPlan string `json:"prevPlan,omitempty"`
	// Partition/Children/FirstChild describe a split.
	Partition  int `json:"partition,omitempty"`
	Children   int `json:"children,omitempty"`
	FirstChild int `json:"firstChild,omitempty"`
	// Worker is the relieved straggler's control-plane address.
	Worker   string        `json:"worker,omitempty"`
	Duration time.Duration `json:"duration,omitempty"`
	Detail   string        `json:"detail,omitempty"`
}

// AdaptiveEvents returns the advisor's decision log (oldest first).
func (c *Coordinator) AdaptiveEvents() []AdaptiveEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]AdaptiveEvent(nil), c.adaptEvents...)
}

func (c *Coordinator) recordAdaptive(ev AdaptiveEvent) {
	ev.Time = time.Now()
	c.mu.Lock()
	c.adaptEvents = append(c.adaptEvents, ev)
	c.mu.Unlock()
	c.cfg.logf("coordinator: adaptive %s job=%s ss=%d %s", ev.Kind, ev.Job, ev.Superstep, ev.Detail)
}

// WorkerPhase is one worker's share of a superstep's wall clock.
type WorkerPhase struct {
	Addr     string
	Duration time.Duration
}

// RuntimeObservation is what the coordinator feeds the advisor after
// every committed superstep: the merged SuperstepStat, the per-partition
// vertex+message counters, and the per-worker phase timings.
type RuntimeObservation struct {
	Job      string
	Stat     SuperstepStat
	PartLoad map[int]int64 // the run's own map: read it, do not keep it
	Workers  []WorkerPhase
	// BaseParts/TotalParts/NumSplits describe the current partition
	// table so the split planner can respect its bounds.
	BaseParts  int
	TotalParts int
	NumSplits  int
}

// SplitDecision names the hot partition to re-hash and the child count.
type SplitDecision struct {
	Parent   int
	Children int
}

// adaptiveAdvisor is the runtime-stats feedback loop's decision surface.
// The coordinator feeds it the merged statistics after every superstep
// (Observe) and consults it for a pending hot-partition split
// (SplitCandidate) and a pending straggler relief (Straggler). Reset
// clears timing history after a recovery rollback, whose re-executed
// supersteps would otherwise replay stale streaks.
type adaptiveAdvisor struct {
	opts AdaptiveOptions

	// Pending decisions computed by Observe.
	split    SplitDecision
	hasSplit bool
	slow     string

	// Straggler bookkeeping: consecutive slow-superstep streaks per
	// worker and the superstep of the last relief (cooldown anchor).
	streak       map[string]int
	lastReliefSS int64
}

// newAdaptiveAdvisor builds the advisor with defaults filled in.
func newAdaptiveAdvisor(opts AdaptiveOptions) *adaptiveAdvisor {
	return &adaptiveAdvisor{
		opts:         opts.withDefaults(),
		streak:       make(map[string]int),
		lastReliefSS: -1 << 30,
	}
}

// Observe folds one committed superstep's merged statistics into the
// advisor: it recomputes the pending split candidate (heaviest
// partition vs the skew threshold) and advances the straggler streaks.
func (a *adaptiveAdvisor) Observe(obs RuntimeObservation) {
	a.hasSplit = false
	a.slow = ""

	// Split planner: the heaviest partition's share against the mean.
	if obs.NumSplits < a.opts.MaxSplits && obs.TotalParts > 1 {
		var total int64
		hot, hotLoad := -1, int64(-1)
		for p := 0; p < obs.TotalParts; p++ {
			l := obs.PartLoad[p]
			total += l
			if l > hotLoad {
				hot, hotLoad = p, l
			}
		}
		mean := float64(total) / float64(obs.TotalParts)
		if hot >= 0 && hotLoad >= a.opts.SplitMinLoad &&
			float64(hotLoad) > a.opts.SplitSkewFactor*mean {
			a.split = SplitDecision{Parent: hot, Children: a.opts.SplitFactor}
			a.hasSplit = true
		}
	}

	// Straggler detector: superstep time vs the phase median, with
	// patience (consecutive supersteps) and a relief cooldown.
	if len(obs.Workers) >= 2 {
		ds := make([]time.Duration, 0, len(obs.Workers))
		for _, w := range obs.Workers {
			ds = append(ds, w.Duration)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		median := ds[(len(ds)-1)/2]
		seen := make(map[string]bool, len(obs.Workers))
		worst, worstStreak := "", 0
		for _, w := range obs.Workers {
			seen[w.Addr] = true
			if median > 0 && float64(w.Duration) > a.opts.StragglerRatio*float64(median) {
				a.streak[w.Addr]++
			} else {
				a.streak[w.Addr] = 0
			}
			if s := a.streak[w.Addr]; s >= a.opts.StragglerPatience && s > worstStreak {
				worst, worstStreak = w.Addr, s
			}
		}
		for addr := range a.streak {
			if !seen[addr] {
				delete(a.streak, addr)
			}
		}
		if worst != "" && obs.Stat.Superstep-a.lastReliefSS >= a.opts.ReliefCooldown {
			a.slow = worst
			a.lastReliefSS = obs.Stat.Superstep
			a.streak[worst] = 0
		}
	}
}

// SplitCandidate returns the pending hot-partition split, if any.
func (a *adaptiveAdvisor) SplitCandidate() (SplitDecision, bool) {
	return a.split, a.hasSplit
}

// Straggler returns the pending relief target, if any.
func (a *adaptiveAdvisor) Straggler() (string, bool) {
	return a.slow, a.slow != ""
}

// Reset clears timing streaks and pending decisions after a recovery
// rollback (re-executed supersteps must not replay stale history).
func (a *adaptiveAdvisor) Reset() {
	a.streak = make(map[string]int)
	a.hasSplit = false
	a.slow = ""
}

// baseParts is the fixed base partition count (node count × partitions
// per node; the node set never changes after assembly).
func (c *Coordinator) baseParts() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes) * c.cfg.PartitionsPerNode
}

// splitPartition drives one hot-partition split at a superstep boundary
// (caller holds jobMu; no phase is in flight), with the mover's helpers
// (mover.go):
//
//  1. the parent's owner images it (imageParts);
//  2. the coordinator re-hashes the image into per-child images plus an
//     empty parent image (rehashPartitionImage);
//  3. every worker adopts the grown split table and the bumped epoch,
//     the children's owners installing the child images with it
//     (installParts);
//  4. last, the empty image evacuates the parent on its owner;
//  5. the coordinator commits the split (routing table, partition
//     loads) and rebroadcasts the topology to purge parked streams.
//
// Until the evacuation, the parent's data is intact on its owner and a
// refusal abandons the split with the cluster unchanged: every worker
// is told the old split list again and shrinks its table back, dropping
// the child copies. A worker's death — or a failed evacuation, which
// leaves the parent's state ambiguous — escalates to checkpoint recovery
// through the returned error. The returned bool reports whether the
// split committed.
func (c *Coordinator) splitPartition(ctx context.Context, run *jobRun, d SplitDecision) (bool, error) {
	start := time.Now()
	cur := run.splits
	total := totalParts(c.baseParts(), cur)
	if d.Parent < 0 || d.Parent >= total || d.Children < 2 {
		return false, nil
	}
	for _, s := range cur {
		if s.Parent == d.Parent {
			return false, nil // already split; its children carry the load now
		}
	}
	rec := splitRec{Parent: d.Parent, First: total, Children: d.Children}
	grown := append(append([]splitRec(nil), cur...), rec)
	owners, err := c.partitionOwners(total + rec.Children)
	if err != nil {
		return false, fmt.Errorf("core: split of partition %d: %w", d.Parent, err)
	}
	announce := func(attempt int64, splits []splitRec, to map[*ccWorker][]int, imgs map[int]*ckptPartData) error {
		for _, w := range c.members() {
			if _, listed := to[w]; !listed {
				to[w] = nil // no image to install: adopt the table and epoch only
			}
		}
		return c.installParts(ctx, partRecvMsg{Name: run.name, Attempt: attempt, Splits: splits}, to, imgs)
	}
	fail := func(stage string, err error) (bool, error) {
		if c.anyWorkerDead() {
			return false, fmt.Errorf("core: split of partition %d: worker died during %s: %w", d.Parent, stage, err)
		}
		if werr := announce(run.attempt, cur, map[*ccWorker][]int{}, nil); werr != nil {
			c.cfg.logf("coordinator: withdrawing the split of partition %d: %v", d.Parent, werr)
		}
		c.recordAdaptive(AdaptiveEvent{
			Kind: "split-failed", Job: run.name, Superstep: run.gs.Superstep, Partition: d.Parent,
			Detail: fmt.Sprintf("%s: %v (split abandoned; cluster unchanged)", stage, err),
		})
		return false, nil
	}

	// 1–2. Image the parent (it stays live until the evacuation below)
	// and re-hash it into children plus the empty parent image.
	imgs, err := c.imageParts(ctx, run.name, map[*ccWorker]partSendMsg{
		owners[d.Parent]: {Name: run.name, Parts: []int{d.Parent}}})
	if err == nil && imgs[d.Parent] == nil {
		err = fmt.Errorf("no image of partition %d came back", d.Parent)
	}
	if err != nil {
		return fail("partition.send", err)
	}
	if imgs, err = rehashPartitionImage(imgs[d.Parent], rec, 0); err != nil {
		return fail("re-hash", err)
	}

	// 3. Every worker adopts the grown table under the bumped epoch, so
	// every next compile agrees and no pre-split stream is claimed; the
	// children land on their round-robin owners in the same verb.
	to := make(map[*ccWorker][]int)
	for p := rec.First; p < rec.First+rec.Children; p++ {
		to[owners[p]] = append(to[owners[p]], p)
	}
	if err := announce(run.attempt+1, grown, to, imgs); err != nil {
		return fail("partition.recv", err)
	}
	// 4. Evacuate the parent. From here its data lives only in the child
	// copies: never abandon — escalate, so checkpoint recovery rebuilds
	// a consistent table.
	if err := c.installParts(ctx, partRecvMsg{Name: run.name, Attempt: run.attempt + 1, Splits: grown},
		map[*ccWorker][]int{owners[d.Parent]: {d.Parent}}, imgs); err != nil {
		return false, fmt.Errorf("core: split of partition %d: evacuating the parent: %w", d.Parent, err)
	}

	// 5. Commit: routing, per-partition loads, epoch, event log.
	run.splits = grown
	parentLoad := run.partLoad[d.Parent]
	delete(run.partLoad, d.Parent)
	for k := 0; k < rec.Children; k++ {
		run.partLoad[rec.First+k] = parentLoad / int64(rec.Children)
	}
	if err := c.broadcastTopology(ctx, run.purgeNames()); err != nil {
		return false, err
	}
	run.attempt++
	c.recordAdaptive(AdaptiveEvent{
		Kind: "split", Job: run.name, Superstep: run.gs.Superstep,
		Partition: d.Parent, Children: rec.Children, FirstChild: rec.First,
		Duration: time.Since(start),
		Detail: fmt.Sprintf("partition %d (load %d) re-hashed into %d children at %d..%d",
			d.Parent, parentLoad, rec.Children, rec.First, rec.First+rec.Children-1),
	})
	return true, nil
}

// anyWorkerDead reports whether any active worker's connection failed.
func (c *Coordinator) anyWorkerDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.dead() {
			return true
		}
	}
	return false
}
