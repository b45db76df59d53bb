// Package core implements the Pregelix runtime: the plan generator that
// compiles the Pregel logical plan (Figures 3-5 of the paper) into
// physical Hyracks jobs per superstep, the data loading/dumping plans,
// checkpoint/recovery, job pipelining, the statistics collector, and the
// failure manager (Section 5.7). Completed jobs stay queryable: their
// partition B-trees are sealed in a versioned query store and serve
// point, top-k and k-hop reads until a re-submission under the same
// name retires the version (see query.go and coordinator_query.go).
package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"pregelix/internal/dfs"
	"pregelix/internal/hyracks"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel"
)

// Options configures a Pregelix runtime instance.
type Options struct {
	// BaseDir roots all node-local storage; required.
	BaseDir string
	// Nodes is the simulated cluster size (default 4).
	Nodes int
	// NodeConfig configures each simulated machine (RAM budget, operator
	// memory, page size).
	NodeConfig hyracks.NodeConfig
	// PartitionsPerNode controls parallelism; the paper's scheduler
	// assigns as many partitions per machine as cores (default 1 here,
	// since machines are simulated by goroutines).
	PartitionsPerNode int
	// Exec selects the connector transport and this process's share of
	// the cluster's nodes. The zero value (in-process channels, all
	// nodes local) is the single-process mode; distributed workers run
	// with a wire transport and their owned node subset.
	Exec hyracks.ExecOptions
	// Compress is the frame compression policy for bulk byte streams
	// this process produces: checkpoint and migration images (and, via
	// the wire transport's own Config.Compress, shuffle streams). Zero
	// value is tuple.CompressOff; readers sniff the format, so any mix
	// of compressing and non-compressing processes interoperates.
	Compress tuple.CompressMode
}

// dfsReplication is the block replication factor of the DFS that holds
// inputs, checkpoints and outputs (capped at the node count), and of the
// coordinator's checkpoint store: a block survives losing one datanode.
const dfsReplication = 2

// Runtime is a Pregelix instance bound to a simulated cluster plus a
// distributed file system whose datanodes are co-located with the
// cluster's node controllers.
type Runtime struct {
	opts    Options
	Cluster *hyracks.Cluster
	DFS     *dfs.FileSystem
	// queries retains sealed partition indexes so point/top-k/k-hop
	// reads need no dump: a finished managed job's in one process, a
	// worker's share of a cluster job's on a worker.
	queries *QueryStore
}

// NewRuntime builds the simulated cluster and its DFS.
func NewRuntime(opts Options) (*Runtime, error) {
	if opts.BaseDir == "" {
		return nil, fmt.Errorf("core: Options.BaseDir is required")
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 4
	}
	if opts.PartitionsPerNode <= 0 {
		opts.PartitionsPerNode = 1
	}
	cluster, err := hyracks.NewCluster(filepath.Join(opts.BaseDir, "cluster"), opts.Nodes, opts.NodeConfig)
	if err != nil {
		return nil, err
	}
	var datanodes []*dfs.Datanode
	for _, n := range cluster.Nodes() {
		datanodes = append(datanodes, &dfs.Datanode{
			Name: string(n.ID),
			Dir:  filepath.Join(opts.BaseDir, "dfs", string(n.ID)),
		})
	}
	fsys, err := dfs.New(datanodes, dfs.Options{Replication: dfsReplication})
	if err != nil {
		return nil, err
	}
	return &Runtime{opts: opts, Cluster: cluster, DFS: fsys, queries: newQueryStore()}, nil
}

// Queries exposes the runtime's retained-results store: point, top-k
// and k-hop reads against finished managed jobs.
func (r *Runtime) Queries() *QueryStore { return r.queries }

// Close retires every sealed version and removes node-local temporary
// state.
func (r *Runtime) Close() error {
	r.queries.closeAll()
	return os.RemoveAll(filepath.Join(r.opts.BaseDir, "cluster"))
}

// globalState is the GS relation of Table 1 plus the Pregel-specific
// statistics the statistics collector tracks. The superstep driver
// (jobrun.go) holds the live copy; the durable one rides in every
// checkpoint manifest, which is what recovery rewinds it from.
type globalState struct {
	Superstep    int64  `json:"superstep"`
	Halt         bool   `json:"halt"`
	Aggregate    []byte `json:"aggregate,omitempty"`
	NumVertices  int64  `json:"numVertices"`
	NumEdges     int64  `json:"numEdges"`
	LiveVertices int64  `json:"liveVertices"`
	Messages     int64  `json:"messages"`
}

// partitionState tracks one graph partition's node placement and local
// storage between supersteps.
type partitionState struct {
	idx  int
	node *hyracks.NodeController

	// vertexIdx stores the partition's share of the Vertex relation.
	vertexIdx storage.Index
	// msg is the sorted combined-message run feeding the next superstep:
	// one frame image in memory until it outgrows that, then the temporary
	// file of Section 5.2 (storage.RunFile). nil when there is no message.
	msg  *storage.RunFile
	msgs int64
	// vid is the live-vertex index (plans that need one, see needVid). nil
	// when no vertex is live: the index is created with its first entry.
	vid *storage.BTree

	// Pending next-superstep state, swapped in after the job completes.
	nextMsg  *storage.RunFile
	nextMsgs int64
	nextVid  *storage.BTree

	// Partition-local statistics.
	numVertices, numEdges, liveVertices int64

	// The partition's global-state vote in the superstep just computed:
	// whether every vertex it computed voted to halt, and its partial
	// aggregate if hasAgg (an aggregate may marshal to no bytes).
	halted bool
	hasAgg bool
	agg    []byte
}

// runState is the per-job execution state shared by the plan generator's
// operator closures.
type runState struct {
	rt    *Runtime
	job   *pregel.Job
	codec *pregel.Codec
	parts []*partitionState
	// gs is the global state the superstep in flight computes under —
	// the previous superstep's, adopted from the driver with every
	// superstep verb.
	gs globalState

	// baseParts is the partition count fixed at load (the base routing
	// modulus); splits is the committed hot-partition split list, which
	// appends child partitions past the base table (split.go). Both are
	// dictated by the cluster controller on every superstep verb so all
	// workers route identically.
	baseParts int
	splits    []splitRec

	// opMem is the per-job operator-memory carve assigned by the
	// admission scheduler (0 = each node's default budget).
	opMem int64
	// runDir is the node-relative scratch subdirectory isolating this
	// job's local files from concurrent tenants ("" = node root).
	runDir string
	// exec is the transport / local-node selection every hyracks job of
	// this run executes with.
	exec hyracks.ExecOptions
	// pinScan pins the load scan to one node. Distributed runs set it so
	// every participant compiles the same schedule; "" lets the runtime
	// pick by DFS block locality.
	pinScan hyracks.NodeID
	// attempt is the cluster-recovery epoch (0 = first attempt). It
	// suffixes superstep spec names so that a superstep retried after a
	// distributed recovery can never meet straggler wire streams of the
	// aborted attempt: stream identity includes the spec name.
	attempt int64

	// plan is the superstep dataflow, prepared once per partition table
	// and run as one round per superstep (superstepPlanFor). ss and join
	// are the superstep in flight and its join plan: the plan's tasks read
	// them, with gs, when a round is armed.
	plan *superstepPlan
	ss   int64
	join pregel.JoinKind

	seq atomic.Int64 // local file version counter
	// ioBytes accumulates the job's own run-layer I/O (per-tenant, so
	// concurrent jobs on the shared cluster don't pollute each other's
	// superstep statistics).
	ioBytes atomic.Int64
}

// SuperstepStat records the statistics collector's view of one superstep.
type SuperstepStat struct {
	Superstep    int64
	Duration     time.Duration
	Messages     int64
	LiveVertices int64
	NumVertices  int64
	NumEdges     int64
	// IOBytes counts the tuple payload bytes that went through the run
	// layer (storage.RunFile) during the superstep — the Msg run written,
	// the deferred vertex updates written and read back, group-by spill
	// runs — plus the spools of materializing connectors. A run is counted
	// where it is written or read, whether or not it outgrew its first
	// frame and was given an OS file. A vertex update written back at the
	// cursor it was read through (the full-outer join's scan or the
	// left-outer join's probe, on a B-tree, record no larger than before)
	// never passes the run layer and is not counted; neither are
	// buffer-cache page reads and write-backs (NodeStats has those).
	IOBytes int64
	// NetworkTuples/NetworkBytes count the traffic shipped over the
	// m-to-n connectors during the superstep (the statistics
	// collector's network usage counter, Section 5.7).
	NetworkTuples int64
	NetworkBytes  int64
	// NetworkWireBytes counts the bytes that actually hit the network
	// sockets (post-compression, message headers included); zero on
	// in-process channel transports. NetworkWireRawBytes is what the
	// same socket traffic would have cost uncompressed, so
	// NetworkWireRawBytes/NetworkWireBytes is the shuffle's wire
	// compression ratio — NetworkBytes can't serve as the baseline
	// because it also counts streams that stayed process-local.
	NetworkWireBytes    int64
	NetworkWireRawBytes int64
	// Plan is the join strategy the superstep executed with (under
	// AutoJoin it may change between supersteps).
	Plan string
}

// JobStats summarizes a job run.
type JobStats struct {
	// Job is the (tenant-qualified) execution name.
	Job string
	// Supersteps is the number of committed supersteps.
	Supersteps int64
	// LoadDuration/RunDuration/DumpDuration/TotalDuration break the wall
	// clock into the three phases of a run.
	LoadDuration  time.Duration
	RunDuration   time.Duration
	DumpDuration  time.Duration
	TotalDuration time.Duration
	// TotalMessages counts messages across all committed supersteps.
	TotalMessages int64
	// Recoveries counts checkpoint rollbacks after failures;
	// Checkpoints counts committed checkpoints.
	Recoveries  int
	Checkpoints int
	// Rebalances counts elastic topology changes (workers joining or
	// draining) the job was carried across — unlike Recoveries these
	// lose no superstep and rewind nothing.
	Rebalances     int
	SuperstepStats []SuperstepStat
	FinalState     GlobalStateView
}

// rollbackStats drops per-superstep statistics past a checkpoint
// rollback point and recomputes the derived totals: the rolled-back
// supersteps will re-execute and re-record, so keeping their entries
// would double-count messages and duplicate SuperstepStats rows.
func rollbackStats(s *JobStats, superstep int64) {
	kept := s.SuperstepStats[:0]
	var msgs int64
	for _, st := range s.SuperstepStats {
		if st.Superstep <= superstep {
			kept = append(kept, st)
			msgs += st.Messages
		}
	}
	s.SuperstepStats = kept
	s.TotalMessages = msgs
	s.Supersteps = superstep
}

// AvgIterationTime returns the mean superstep duration, the metric of
// the paper's Figure 11.
func (s *JobStats) AvgIterationTime() time.Duration {
	if len(s.SuperstepStats) == 0 {
		return 0
	}
	var total time.Duration
	for _, ss := range s.SuperstepStats {
		total += ss.Duration
	}
	return total / time.Duration(len(s.SuperstepStats))
}

// GlobalStateView is the user-visible final global state.
type GlobalStateView struct {
	Superstep    int64
	NumVertices  int64
	NumEdges     int64
	LiveVertices int64
	Aggregate    []byte
}

// Run executes one job end to end: load from DFS, iterate supersteps
// until termination, dump results to DFS.
func (r *Runtime) Run(ctx context.Context, job *pregel.Job) (*JobStats, error) {
	stats, _, err := r.run(ctx, job, nil, true, tenancy{})
	return stats, err
}

// RunAdmitted executes one job that holds a Gate slot: under the
// ticket's operator-memory carve opMem (0 = each node's whole budget),
// in node-local scratch of its own, with its partition indexes sealed
// into the query tier rather than dropped. job.Name must be unique per
// submission (the serve tier's "<name>@j<id>"): it names the scratch
// directory and the sealed version.
func (r *Runtime) RunAdmitted(ctx context.Context, job *pregel.Job, opMem int64) (*JobStats, error) {
	defer r.sweepRunDir(job.Name)
	stats, _, err := r.run(ctx, job, nil, true, tenancy{opMem: opMem, runDir: jobRunDir(job.Name), retain: true})
	return stats, err
}

// jobRunDir is the node-relative scratch directory of the job run
// named name, in either engine. The prefix keeps it one directory
// below jobs/ whatever the name holds ("", ".", "..").
func jobRunDir(name string) string {
	return "jobs/run-" + strings.ReplaceAll(name, "/", "_")
}

// sweepRunDir reclaims an admitted run's scratch directory on every
// node — unless the run sealed its indexes into the query tier, in
// which case the retained version owns the directory and reclaims it
// when it retires. A run drops its own live state (run files), so this
// only sweeps stragglers from failure paths.
func (r *Runtime) sweepRunDir(name string) {
	if r.queries.Retained(name) {
		return
	}
	for _, n := range r.Cluster.Nodes() {
		n.RemoveJobDir(jobRunDir(name))
	}
}

// tenancy carries the isolation parameters of a run that shares its
// cluster: RunAdmitted's and DeltaRefresh's, and a worker's session.
// Run and RunPipeline run without (tenancy{}).
type tenancy struct {
	// opMem is the per-job operator-memory carve (0 = node default).
	opMem int64
	// runDir is the per-job node-local scratch subdirectory.
	runDir string
	// retain seals the finished job's partition indexes into the
	// runtime's query store instead of dropping them (managed jobs only;
	// plain Run/RunPipeline tear down as before).
	retain bool
}

// RunPipeline executes compatible contiguous jobs with pipelining
// (Section 5.6): only the first job loads from DFS and only the last
// dumps; intermediate Vertex state stays in the partition indexes,
// skipping HDFS round trips and index bulk-loads. All jobs must share
// vertex/edge codecs (they must "interpret the corresponding bits in the
// same way").
func (r *Runtime) RunPipeline(ctx context.Context, jobs []*pregel.Job) ([]*JobStats, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: empty pipeline")
	}
	var all []*JobStats
	var carried []*partitionState
	for i, job := range jobs {
		last := i == len(jobs)-1
		stats, parts, err := r.run(ctx, job, carried, last, tenancy{})
		if err != nil {
			return all, err
		}
		all = append(all, stats)
		carried = parts
	}
	return all, nil
}

func (r *Runtime) run(ctx context.Context, job *pregel.Job, carried []*partitionState, dump bool, ten tenancy) (*JobStats, []*partitionState, error) {
	if err := job.Validate(); err != nil {
		return nil, nil, err
	}
	// Checkpoints only serve recovery inside this run; nothing reads
	// them once it returns.
	defer removeJobFiles(r.DFS, job.Name)
	run := newJobRun(job.Name, job)
	rs := r.newRunState(job, r.opts.Exec, ten)

	// Load or inherit the Vertex relation; every vertex starts active.
	if carried != nil {
		rs.adoptPartitions(carried)
	} else {
		loadStart := time.Now()
		if err := rs.load(ctx); err != nil {
			rs.cleanup()
			return run.stats, nil, fmt.Errorf("core: load %s: %w", job.Name, err)
		}
		run.stats.LoadDuration = time.Since(loadStart)
	}
	run.gs = seedGS(0, rs.partCounts())
	run.gs.LiveVertices = run.gs.NumVertices

	if err := run.drive(ctx, &localPhases{rs: rs, wantDump: dump}); err != nil {
		rs.cleanup()
		return run.stats, nil, err
	}
	if !dump {
		// Hand partitions to the next pipelined job.
		rs.closePlan()
		parts := rs.parts
		rs.parts = nil
		return run.stats, parts, nil
	}
	if ten.retain {
		rs.seal(r.queries)
	}
	rs.cleanup()
	return run.stats, nil, nil
}

// newRunState builds the execution state of one job on this runtime.
func (r *Runtime) newRunState(job *pregel.Job, exec hyracks.ExecOptions, ten tenancy) *runState {
	return &runState{rt: r, job: job, codec: &job.Codec, opMem: ten.opMem, runDir: ten.runDir, exec: exec}
}

// adoptPartitions reuses a predecessor job's loaded partitions (each
// Pregel job starts with all vertices active, so whatever message and
// live-vertex state the predecessor left is dropped).
func (rs *runState) adoptPartitions(parts []*partitionState) {
	rs.parts = parts
	rs.baseParts = len(parts)
	for _, ps := range parts {
		dropRelations(ps.msg, ps.vid)
		ps.msg, ps.msgs, ps.vid = nil, 0, nil
	}
}

// dropRelations releases a Msg run and a Vid index — memory image, file,
// buffer-cache pages — either of which may be nil, the empty relation.
func dropRelations(msg *storage.RunFile, vid *storage.BTree) {
	if msg != nil {
		msg.Delete()
	}
	if vid != nil {
		vid.Drop()
	}
}

// localPhases executes the driver's verbs in this process, as direct
// calls on the run's runState: no control plane, no encoding, no fan-out.
type localPhases struct {
	rs *runState
	// wantDump is false for all but the last job of a pipeline.
	wantDump bool
}

func (l *localPhases) boundary(context.Context, *jobRun) error { return nil }

func (l *localPhases) superstep(ctx context.Context, run *jobRun, ss int64, join pregel.JoinKind) (stepOutcome, error) {
	rep, err := l.rs.runSuperstep(ctx, &superstepMsg{SS: ss, GS: run.gs, Join: join, Attempt: run.attempt})
	if err != nil {
		return stepOutcome{}, err
	}
	return foldStep(l.rs.job, []superstepReply{*rep})
}

func (l *localPhases) observe(context.Context, *jobRun) (bool, error) { return false, nil }

// checkpoint streams every partition's snapshot straight from its
// indexes and runs into the checkpoint writer.
func (l *localPhases) checkpoint(ctx context.Context, run *jobRun, ss int64) error {
	rs, mode := l.rs, l.rs.rt.opts.Compress
	if err := writeCheckpoint(ctx, rs.rt.DFS, run, ss, rs.table(), func(p int, vertex, msg io.Writer) (partStat, error) {
		ps := rs.parts[p]
		if _, err := writeVertexSnapshot(vertex, ps.vertexIdx, mode); err != nil {
			return partStat{}, err
		}
		return partStatOf(ps), writeMsgSnapshot(msg, ps, mode)
	}); err != nil {
		return fmt.Errorf("core: checkpoint at superstep %d: %w", ss, err)
	}
	return nil
}

// restore handles a node failure (Section 5.5): the machine's disks are
// gone for every reader, the checkpoint's included; then, unless the job
// has no usable checkpoint, the machine is blacklisted, the partitions
// are placed over the survivors, and each is rebuilt there from the
// checkpoint reader's streams.
func (l *localPhases) restore(ctx context.Context, run *jobRun, cause error) (*checkpointManifest, error) {
	nf, ok := failureOf(cause)
	if !ok {
		return nil, errNotRecoverable
	}
	rs := l.rs
	rs.rt.DFS.SetNodeDown(string(nf.Node), true)
	return restoreCheckpoint(ctx, rs.rt.DFS, run, func(m *checkpointManifest) error {
		return rs.reassign(nf.Node, m.Partitions)
	}, func(p int, st partStat, vertex, msg io.Reader) error {
		return rs.reloadPartitionFrom(rs.parts[p], st, vertex, msg)
	})
}

func (l *localPhases) dump(ctx context.Context, run *jobRun) error {
	if !l.wantDump || run.job.OutputPath == "" {
		return nil
	}
	if err := l.rs.dump(ctx); err != nil {
		return fmt.Errorf("core: dump %s: %w", run.name, err)
	}
	return nil
}

// runSuperstep is the body of the superstep verb — what one process does
// for one superstep, whether it hosts every partition or a worker's
// share: adopt the driver's global state, epoch and split table, run one
// round of the superstep plan with the join the driver chose (compiling
// the plan only when the partition table changed), swap in the
// next-superstep partition state, and report the hosted partitions'
// counters and global-state votes.
func (rs *runState) runSuperstep(ctx context.Context, msg *superstepMsg) (*superstepReply, error) {
	if msg.Join != pregel.FullOuterJoin && msg.Join != pregel.LeftOuterJoin {
		// The driver resolves AutoJoin before it sends the verb; the verb
		// may come from another process, so check what it names.
		return nil, fmt.Errorf("core: superstep %d names join %v, want fullouter or leftouter", msg.SS, msg.Join)
	}
	if msg.SS == 1 && msg.Join == pregel.LeftOuterJoin {
		// Every vertex is live and nothing has built a Vid index yet: a
		// probe would compute nothing and report a halt. chooseJoinFor
		// never asks for it; a driver that does predates that rule.
		return nil, fmt.Errorf("core: superstep 1 must scan, the driver asked for the left-outer-join plan")
	}
	rs.gs = msg.GS
	rs.attempt = msg.Attempt
	// Reconcile the partition table with the controller's split list
	// before compiling, so every participant's spec (partition count,
	// sticky locations, vid router) agrees.
	rs.adoptSplits(msg.Splits)
	rs.ss, rs.join = msg.SS, msg.Join
	plan, err := rs.superstepPlanFor()
	if err != nil {
		return nil, err
	}

	ioBefore := rs.ioBytes.Load()
	res, err := plan.Run(ctx, rs.roundName(msg.SS))
	if err != nil {
		// A failed round ends its plan; the retry, under a new attempt,
		// compiles its own.
		rs.closePlan()
		return nil, err
	}
	rs.swapPartitions()
	reply := &superstepReply{Parts: rs.partCounts()}
	for _, cs := range res.ConnStats {
		reply.NetTuples += cs.Tuples()
		reply.NetBytes += cs.Bytes()
		reply.NetWireBytes += cs.WireBytes()
		reply.NetWireRawBytes += cs.WireRawBytes()
	}
	reply.IOBytes = rs.ioBytes.Load() - ioBefore
	return reply, nil
}

// superstepPlans counts the superstep plans this process compiled.
var superstepPlans atomic.Int64

// superstepPlan is the superstep dataflow prepared once and run as one
// round per superstep for as long as the partition table it was compiled
// for holds: each partition's node, and with the table's size the split
// list its router was built with. The join and the attempt do not shape
// it; the tasks and the round's name read them per round.
type superstepPlan struct {
	*hyracks.Plan
	nodes []hyracks.NodeID
}

// superstepPlanFor returns the prepared superstep plan, compiling,
// scheduling and launching a new one only when the partition table
// changed.
func (rs *runState) superstepPlanFor() (*hyracks.Plan, error) {
	if p := rs.plan; p != nil &&
		slices.EqualFunc(p.nodes, rs.parts, func(id hyracks.NodeID, ps *partitionState) bool { return id == ps.node.ID }) {
		return p.Plan, nil
	}
	rs.closePlan()
	p, err := hyracks.Prepare(rs.rt.Cluster, rs.buildSuperstepJob(), rs.exec)
	if err != nil {
		return nil, err
	}
	superstepPlans.Add(1)
	rs.plan = &superstepPlan{Plan: p, nodes: rs.locations()}
	return p, nil
}

// closePlan closes the superstep plan, and its goroutines exit. A failed
// round, whatever reshapes the partition table or the hosted node set
// (splits, migrations, reconfiguration, restores) and the end of the run
// call it, each at a boundary where no superstep is in flight.
func (rs *runState) closePlan() {
	if rs.plan != nil {
		rs.plan.Close()
		rs.plan = nil
	}
}

// swapPartitions makes the superstep's outputs the next one's inputs:
// each partition's new Msg run and Vid index replace the consumed ones.
func (rs *runState) swapPartitions() {
	for _, ps := range rs.parts {
		dropRelations(ps.msg, ps.vid)
		ps.msg, ps.msgs, ps.vid = ps.nextMsg, ps.nextMsgs, ps.nextVid
		ps.nextMsg, ps.nextMsgs, ps.nextVid = nil, 0, nil
	}
}

// ownedParts lists the partitions this process hosts: all of them in a
// single-process runtime, a worker's share on a cluster.
func (rs *runState) ownedParts() []*partitionState {
	out := make([]*partitionState, 0, len(rs.parts))
	for _, ps := range rs.parts {
		if rs.exec.Local(ps.node.ID) {
			out = append(out, ps)
		}
	}
	return out
}

// partCounts reports the hosted partitions' counters.
func (rs *runState) partCounts() []partCount {
	owned := rs.ownedParts()
	out := make([]partCount, len(owned))
	for i, ps := range owned {
		out[i] = partCount{
			Part: ps.idx, Vertices: ps.numVertices, Edges: ps.numEdges,
			Msgs: ps.msgs, Live: ps.liveVertices,
			Halt: ps.halted, HasAgg: ps.hasAgg, Agg: ps.agg,
		}
	}
	return out
}

// seal moves the run's hosted vertex indexes into a retained result
// version in store, retiring any previous version of the same base job
// name. The sealed version owns the job's scratch directory: it is
// reclaimed when the version retires and its readers drain. seal returns
// nil when the run holds no loaded partitions (it failed before
// loading), leaving an older sealed version — if any — serving
// untouched. The caller cleans up what is left of the run.
func (rs *runState) seal(store *QueryStore) *retainedResult {
	parts := make(map[int]storage.Index)
	for _, ps := range rs.ownedParts() {
		if ps.vertexIdx != nil {
			parts[ps.idx] = ps.vertexIdx
			ps.vertexIdx = nil // cleanup must not drop it
		}
	}
	if len(parts) == 0 {
		return nil
	}
	rt, runDir := rs.rt, rs.runDir
	r := &retainedResult{
		version:   rs.job.Name,
		partTable: rs.table(),
		codec:     rs.codec,
		parts:     parts,
		cleanup: func() {
			for _, n := range rt.Cluster.Nodes() {
				n.RemoveJobDir(runDir)
			}
		},
	}
	store.seal(r)
	return r
}

func (rs *runState) cleanup() {
	rs.closePlan()
	for _, ps := range rs.parts {
		if ps.vertexIdx != nil {
			ps.vertexIdx.Drop()
		}
		dropRelations(ps.msg, ps.vid)
		dropRelations(ps.nextMsg, ps.nextVid)
	}
	rs.parts = nil
}

// table is the run's partition table, as a seal and a checkpoint
// record it.
func (rs *runState) table() partTable {
	return partTable{NumParts: len(rs.parts), BaseParts: rs.baseParts, Splits: slices.Clone(rs.splits)}
}

// numPartitions returns the job parallelism.
func (rs *runState) numPartitions() int {
	return len(rs.rt.Cluster.LiveNodes()) * rs.rt.opts.PartitionsPerNode
}

// initParts builds the run's partition table with the deterministic
// round-robin placement every cluster participant computes identically.
// The load plan populates the partitions; a cluster worker joining as a
// replacement instead populates them straight from a checkpoint.
func (rs *runState) initParts() {
	p := rs.numPartitions()
	nodes := rs.assignPartitions(p)
	rs.parts = make([]*partitionState, p)
	for i := range rs.parts {
		rs.parts[i] = &partitionState{idx: i, node: nodes[i]}
	}
	rs.baseParts = p
	rs.splits = nil
}

// assignPartitions maps partitions round-robin over live nodes.
func (rs *runState) assignPartitions(n int) []*hyracks.NodeController {
	live := rs.rt.Cluster.LiveNodes()
	out := make([]*hyracks.NodeController, n)
	for i := range out {
		out[i] = live[i%len(live)]
	}
	return out
}

// locations lists the node of each current partition (the sticky
// location constraints of Section 5.3.4).
func (rs *runState) locations() []hyracks.NodeID {
	out := make([]hyracks.NodeID, len(rs.parts))
	for i, ps := range rs.parts {
		out[i] = ps.node.ID
	}
	return out
}

func (rs *runState) nextSeq() int64 { return rs.seq.Add(1) }

// newSpec creates a physical job spec carrying the run's tenancy
// parameters (operator-memory carve, isolated scratch directory) so
// every task of every compiled plan observes them.
func (rs *runState) newSpec(name string) *hyracks.JobSpec {
	return &hyracks.JobSpec{
		Name:             name,
		OperatorMemBytes: rs.opMem,
		RunDir:           rs.runDir,
		IOCounter:        &rs.ioBytes,
	}
}

// runHyracks executes one compiled physical job with the run's
// transport and local-node selection.
func (rs *runState) runHyracks(ctx context.Context, spec *hyracks.JobSpec) error {
	_, err := hyracks.RunJobWith(ctx, rs.rt.Cluster, spec, rs.exec)
	return err
}

// tempPath returns a job-scoped temp file path on the given node, under
// the run's isolated scratch directory when one is set.
func (rs *runState) tempPath(node *hyracks.NodeController, prefix string) string {
	return node.TempPathIn(rs.runDir, prefix)
}

// failureOf unwraps a recoverable node failure, distinguishing it from
// application errors which are forwarded to the user (the failure
// manager contract of Section 5.7).
func failureOf(err error) (*hyracks.NodeFailure, bool) {
	var nf *hyracks.NodeFailure
	if ok := asErr(err, &nf); ok {
		return nf, true
	}
	return nil, false
}
