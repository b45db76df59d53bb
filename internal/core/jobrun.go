package core

// The superstep driver. A job run is one state machine — choose the
// join, run the superstep, fold the counters into the global state,
// decide the halt, record the statistics, checkpoint at the cadence,
// and on a machine loss rewind to the last manifest and retry under a
// new epoch — and it exists here once. Runtime.Run, Runtime.DeltaRefresh,
// Coordinator.RunJob and Coordinator.DeltaRefresh each prepare a
// jobRun's starting state (load, resume, or ingest + arm), hand it to
// drive, and finish (seal or tear down). What differs between the
// single-process runtime and the cluster is only how a verb reaches the
// partitions: the phases seam below has exactly two implementations,
// localPhases (direct calls on the runState) and clusterPhases (phase
// RPCs over the registered workers).

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pregelix/pregel"
)

// phases is what the driver asks of the engine executing a job. The
// verbs are the ones the cluster controller sends its workers; the
// in-process runtime implements them as direct calls. An error from any
// verb is offered to restore before the driver gives up.
type phases interface {
	// boundary does the work only a superstep boundary allows before the
	// next step starts (cluster: absorb an elastic joiner, empty a
	// draining worker). It may bump run.attempt.
	boundary(ctx context.Context, run *jobRun) error
	// superstep executes superstep ss with the given join plan under
	// run.gs and run.attempt, and returns the participants' folded reply.
	superstep(ctx context.Context, run *jobRun, ss int64, join pregel.JoinKind) (stepOutcome, error)
	// observe shows the superstep just recorded to whatever adapts to it
	// (cluster: the runtime advisor's split and straggler actuators). It
	// reports whether this boundary must be checkpointed off cadence.
	observe(ctx context.Context, run *jobRun) (forceCheckpoint bool, err error)
	// checkpoint commits a checkpoint of superstep ss carrying run.gs.
	checkpoint(ctx context.Context, run *jobRun, ss int64) error
	// restore handles a failed verb: errNotRecoverable when cause is not
	// a machine loss; otherwise every partition is rewound to the last
	// committed manifest, ready to run under epoch run.attempt+1, and the
	// manifest is returned.
	restore(ctx context.Context, run *jobRun, cause error) (*checkpointManifest, error)
	// dump writes the result out. It is a verb of the loop so that a
	// loss during it rewinds too.
	dump(ctx context.Context, run *jobRun) error
}

// errNotRecoverable marks a failure with no lost machine behind it: an
// application error (or a user cancellation) that must be forwarded,
// not retried — the failure-manager contract of Section 5.7.
var errNotRecoverable = errors.New("core: failure is not a machine loss")

// stepOutcome is one superstep folded over every participant: stat
// carries the summed partition counters and traffic (the driver fills
// in Superstep, Duration and Plan), haltAll and aggregate come from the
// single global-state task.
type stepOutcome struct {
	stat      SuperstepStat
	haltAll   bool
	aggregate []byte
}

// foldStep merges the participants' superstep replies. Exactly one of
// them hosted the global-state aggregation task.
func foldStep(reps []superstepReply) (stepOutcome, error) {
	var out stepOutcome
	st, owners := &out.stat, 0
	for i := range reps {
		rep := &reps[i]
		for _, p := range rep.Parts {
			st.Messages += p.Msgs
			st.LiveVertices += p.Live
			st.NumVertices += p.Vertices
			st.NumEdges += p.Edges
		}
		st.IOBytes += rep.IOBytes
		st.NetworkTuples += rep.NetTuples
		st.NetworkBytes += rep.NetBytes
		st.NetworkWireBytes += rep.NetWireBytes
		st.NetworkWireRawBytes += rep.NetWireRawBytes
		if rep.GSOwner {
			owners++
			out.haltAll = rep.HaltAll
			if rep.HasAgg {
				out.aggregate = rep.Aggregate
			}
		}
	}
	if owners != 1 {
		return out, fmt.Errorf("core: %d participants reported the global-state task, want exactly one", owners)
	}
	return out, nil
}

// seedGS folds partition counters into a run's starting global state.
func seedGS(superstep int64, parts []partCount) globalState {
	gs := globalState{Superstep: superstep}
	for _, p := range parts {
		gs.NumVertices += p.Vertices
		gs.NumEdges += p.Edges
		gs.LiveVertices += p.Live
	}
	return gs
}

// jobRun is one execution of a job: everything the driver decides with
// and records into. It is also what a mid-run topology change must be
// carried across — the session joiners open, the epoch to bump.
type jobRun struct {
	// name is the (tenant-qualified) execution name; job the program and
	// plan hints the decisions read.
	name  string
	job   *pregel.Job
	stats *JobStats
	// gs is the global state as of the last committed superstep. Its one
	// durable copy is the checkpoint manifest.
	gs globalState
	// attempt is the recovery/rebalance epoch superstep specs are named
	// under (see runState.attempt).
	attempt int64
	// progress, when non-nil, is called after every committed superstep.
	progress func(superstep int64)
	// advisor, when non-nil, is shown every superstep by the cluster's
	// observe (-adaptive).
	advisor *adaptiveAdvisor
	// begin is the job session a worker joining mid-run must open
	// (cluster runs only).
	begin *jobBeginMsg
	// splits is the run's committed hot-partition split list (split.go):
	// every superstep verb re-broadcasts it so worker tables never drift,
	// and checkpoint manifests journal it. partLoad holds each
	// partition's latest vertex+message counters from the superstep
	// replies; the rebalancer and the split planner weigh their picks
	// with them. Both are the cluster driver's (its goroutine alone
	// touches them) and end with the run.
	splits   []splitRec
	partLoad map[int]int64

	start, runStart time.Time
}

func newJobRun(name string, job *pregel.Job) *jobRun {
	return &jobRun{name: name, job: job, stats: &JobStats{Job: name}, start: time.Now()}
}

// drive runs supersteps from run.gs until the program halts or the
// superstep cap is reached, then dumps, surviving machine losses that a
// committed checkpoint covers.
func (r *jobRun) drive(ctx context.Context, ph phases) error {
	r.runStart = time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		done, err := r.advance(ctx, ph)
		if err != nil {
			m, rerr := ph.restore(ctx, r, err)
			if errors.Is(rerr, errNotRecoverable) {
				return err
			}
			if rerr != nil {
				return fmt.Errorf("%w (recovery failed: %v)", err, rerr)
			}
			r.attempt++
			r.rewindTo(m)
			if r.advisor != nil {
				// Timing streaks and pending decisions from before the
				// failure describe supersteps that will run again.
				r.advisor.Reset()
			}
		}
		if done {
			break
		}
	}
	r.stats.TotalDuration = time.Since(r.start)
	r.stats.FinalState = GlobalStateView{
		Superstep:    r.gs.Superstep,
		NumVertices:  r.gs.NumVertices,
		NumEdges:     r.gs.NumEdges,
		LiveVertices: r.gs.LiveVertices,
		Aggregate:    r.gs.Aggregate,
	}
	return nil
}

// rewindTo adopts a committed manifest as the run's position: its
// global state and its journaled split table. The statistics rewind
// with the state — supersteps past the manifest will run and record
// again — and the partition loads are dropped: they describe a layout
// and message distribution that no longer exist, and a planner fed
// them would act on ghosts.
func (r *jobRun) rewindTo(m *checkpointManifest) {
	r.stats.Recoveries++
	r.gs = m.GS
	r.gs.Halt = false
	r.splits = m.Splits
	clear(r.partLoad)
	rollbackStats(r.stats, m.Superstep)
}

// advance takes the run one step forward: the next superstep with its
// boundary work, or — once the program halted or hit the cap — the dump.
func (r *jobRun) advance(ctx context.Context, ph phases) (done bool, err error) {
	if err := ph.boundary(ctx, r); err != nil {
		return false, err
	}
	ss := r.gs.Superstep + 1
	if r.gs.Halt || (r.job.MaxSupersteps > 0 && ss > int64(r.job.MaxSupersteps)) {
		r.stats.RunDuration = time.Since(r.runStart)
		dumpStart := time.Now()
		if err := ph.dump(ctx, r); err != nil {
			return false, err
		}
		r.stats.DumpDuration = time.Since(dumpStart)
		return true, nil
	}

	join := chooseJoinFor(r.job, &r.gs, ss)
	stepStart := time.Now()
	out, err := ph.superstep(ctx, r, ss, join)
	if err != nil {
		return false, err
	}
	st := out.stat
	st.Superstep, st.Duration, st.Plan = ss, time.Since(stepStart), join.String()
	msgs := st.Messages
	r.gs = globalState{
		Superstep: ss,
		// The program terminates when every vertex halted and no messages
		// are in flight (footnote 3 of the paper).
		Halt:         out.haltAll && msgs == 0,
		Aggregate:    out.aggregate,
		NumVertices:  st.NumVertices,
		NumEdges:     st.NumEdges,
		LiveVertices: st.LiveVertices,
		Messages:     msgs,
	}
	r.stats.Supersteps = ss
	r.stats.TotalMessages += msgs
	r.stats.SuperstepStats = append(r.stats.SuperstepStats, st)
	if r.progress != nil {
		r.progress(ss)
	}

	force, err := ph.observe(ctx, r)
	if err != nil {
		return false, err
	}
	if r.job.CheckpointEvery > 0 && (force || ss%int64(r.job.CheckpointEvery) == 0) {
		if err := ph.checkpoint(ctx, r, ss); err != nil {
			return false, err
		}
		r.stats.Checkpoints++
	}
	return false, nil
}
