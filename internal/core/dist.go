package core

import (
	"encoding/json"

	"pregelix/internal/delta"
	"pregelix/pregel"
)

// Control-plane RPC methods driven by the cluster controller against its
// registered workers: 19 verbs, plus the one notification below. One
// Pregel job is a session of phases: begin → load → (superstep →
// checkpoint?)* → dump? → end, each phase one hyracks job executed by
// every worker simultaneously (each instantiates its own nodes' tasks;
// the shuffle meets on the wire transport). The fault-tolerance verbs
// ride the same connection: heartbeat probes liveness, job.abort cancels
// an in-flight phase without tearing the session down, and
// cluster.reconfigure reassigns node ownership after a worker failure
// or a rebalance.
//
// Partition state moves — into the controller's replicated checkpoint
// store and back, between workers, into split children, out of a sealed
// version — as partition images through one verb pair: partition.send
// images partitions on the worker that holds them (named ones, every
// owned one for a checkpoint, or a sealed version's with FromVersion),
// and partition.recv installs images on a worker, after it adopts the
// controller's split table and epoch (with no images that is all it
// does: a hot-partition split being announced, split.go) and, for a
// checkpoint restore, after it resets the session. partition.drop
// reclaims the copies a movement leaves behind, and worker.release
// tells a drained worker it may exit. worker.drain is the one
// worker→controller notification: a departing worker asking to have its
// partitions migrated out first.
//
// The query-tier verbs serve reads from a finished job's retained
// partition indexes: job.end with Retain seals the session's B-trees
// into a result version instead of dropping them, and query.point /
// query.topk evaluate batched reads against an exact sealed version
// (k-hop expansion is coordinator-side iteration over query.point).
//
// The delta verbs make a sealed result incrementally refreshable:
// delta.ingest opens a delta session (cloning the sealed partitions —
// locally where the worker holds them, from shipped partition.send
// images where it does not), applies a journaled mutation batch through
// the job's Resolver, and accumulates the dirty vertex set; delta.run
// seeds the live-vertex indexes from the accumulated dirty set and
// returns the session's counters, after which ordinary job.superstep
// rounds drive the delta supersteps and job.end (Retain) seals the
// refreshed result as the next version.
const (
	rpcPing        = "ping"
	rpcHeartbeat   = "heartbeat"
	rpcPutFile     = "dfs.put"
	rpcJobBegin    = "job.begin"
	rpcJobLoad     = "job.load"
	rpcSuperstep   = "job.superstep"
	rpcJobDump     = "job.dump"
	rpcJobCancel   = "job.cancel"
	rpcJobAbort    = "job.abort"
	rpcJobEnd      = "job.end"
	rpcReconfigure = "cluster.reconfigure"
	rpcPartSend    = "partition.send"
	rpcPartRecv    = "partition.recv"
	rpcPartDrop    = "partition.drop"
	rpcRelease     = "worker.release"
	rpcQueryPoint  = "query.point"
	rpcQueryTopK   = "query.topk"
	rpcDeltaIngest = "delta.ingest"
	rpcDeltaRun    = "delta.run"

	// notifyDrain is sent by a worker (unsolicited, no reply expected)
	// to request a graceful drain; every other method above is a
	// controller→worker request.
	notifyDrain = "worker.drain"
)

// registerMsg is a worker's handshake request.
type registerMsg struct {
	// DataAddr is the worker's wire-transport listen address.
	DataAddr string `json:"dataAddr"`
	// Nodes is the number of node controllers the worker contributes.
	Nodes int `json:"nodes"`
	// Elastic, on a worker joining an already-assembled cluster, asks
	// the controller to rebalance partitions onto it at the next
	// superstep (or job) boundary instead of parking it as a passive
	// standby that only a failure would adopt.
	Elastic bool `json:"elastic,omitempty"`
	// Sealed lists the result versions this worker still holds in its
	// query store — populated by rejoining workers whose session
	// outlived the previous coordinator, so a restarted controller can
	// rebuild its sealed-version catalog (query routing) from the
	// registration handshake alone.
	Sealed []sealedReport `json:"sealed,omitempty"`
}

// sealedReport describes one sealed result version a worker holds: the
// exact version string, the total partition count of the sealed run,
// and the partition indexes hosted by the reporting worker. It is the
// re-registration form of jobEndReply.
type sealedReport struct {
	Version string `json:"version"`
	Parts   []int  `json:"parts"`
	partTable
}

// startMsg completes the handshake once the expected workers have
// registered: the agreed cluster topology every process constructs
// identically, the routing table, and the run parameters the controller
// dictates.
type startMsg struct {
	// TotalNodes is the cluster size; node IDs are nc1..ncN everywhere.
	TotalNodes int `json:"totalNodes"`
	// Owned names this worker's node controllers.
	Owned []string `json:"owned"`
	// Peers maps every node ID to the data address of its host process.
	Peers map[string]string `json:"peers"`
	// PartitionsPerNode / RAMBytes / PageSize mirror core.Options so all
	// workers build equivalent runtimes.
	PartitionsPerNode int   `json:"partitionsPerNode"`
	RAMBytes          int64 `json:"ramBytes"`
	PageSize          int   `json:"pageSize"`
}

// putFileMsg ships a DFS file (typically the input graph) to a worker;
// its bytes are the frame's attachment.
type putFileMsg struct {
	Path string `json:"path"`
	Data []byte `json:"-"`
}

func (m *putFileMsg) Attachments() []*[]byte { return []*[]byte{&m.Data} }

// jobBeginMsg opens a job session on a worker.
type jobBeginMsg struct {
	// Name is the tenant-qualified job name; it keys the session and the
	// wire streams of every phase.
	Name string `json:"name"`
	// Spec is the opaque job descriptor; the worker's configured
	// JobBuilder turns it into a pregel.Job (every worker must build the
	// same logical job — the controller ships the bytes verbatim).
	Spec json.RawMessage `json:"spec"`
	// ScanNode pins the load scan so all schedules agree.
	ScanNode string `json:"scanNode"`
	// RunDir isolates the job's node-local scratch files.
	RunDir string `json:"runDir"`
}

// partCount is one partition's share of a phase result. Only the
// partitions a worker owns appear in its replies.
type partCount struct {
	Part     int   `json:"part"`
	Vertices int64 `json:"vertices"`
	Edges    int64 `json:"edges"`
	Msgs     int64 `json:"msgs"`
	Live     int64 `json:"live"`
	// The partition's global-state vote, read from superstep replies:
	// Halt when every vertex it computed voted to halt, and Agg its
	// partial aggregate when HasAgg. Presence is a bit of its own because
	// an aggregate may marshal to no bytes.
	Halt   bool   `json:"halt,omitempty"`
	HasAgg bool   `json:"hasAgg,omitempty"`
	Agg    []byte `json:"agg,omitempty"`
}

// loadReply reports the loaded partitions of one worker.
type loadReply struct {
	Parts []partCount `json:"parts"`
}

// superstepMsg runs one superstep. The driver owns the global state:
// every participant receives the merged GS of the previous superstep and
// the centrally chosen join plan, so every compiled spec is identical.
// (The in-process runtime passes the same struct by pointer.)
type superstepMsg struct {
	Name string          `json:"name"`
	SS   int64           `json:"ss"`
	GS   globalState     `json:"gs"`
	Join pregel.JoinKind `json:"join"`
	// Attempt counts cluster recoveries of this job. It suffixes the
	// compiled spec name so a retried superstep's wire streams can never
	// collide with stragglers of the aborted attempt.
	Attempt int64 `json:"attempt,omitempty"`
	// Splits is the controller's authoritative hot-partition split list;
	// workers reconcile their partition tables against it before
	// compiling, so every spec routes vids identically (split.go).
	Splits []splitRec `json:"splits,omitempty"`
}

// superstepReply reports one worker's share of a superstep.
type superstepReply struct {
	Parts []partCount `json:"parts"`
	// Traffic and I/O attributed to this worker's tasks. NetBytes counts
	// payload frame bytes; NetWireBytes counts what actually hit the
	// network sockets (post-compression, headers included) and
	// NetWireRawBytes what that traffic would have cost uncompressed.
	NetTuples       int64 `json:"netTuples"`
	NetBytes        int64 `json:"netBytes"`
	NetWireBytes    int64 `json:"netWireBytes,omitempty"`
	NetWireRawBytes int64 `json:"netWireRawBytes,omitempty"`
	IOBytes         int64 `json:"ioBytes"`
	// DurationNS is the worker's own superstep wall time (including any
	// injected phase delay); the coordinator's straggler detector
	// compares workers against the phase median.
	DurationNS int64 `json:"durationNS,omitempty"`
}

// jobNameMsg addresses a phase at an open job session.
type jobNameMsg struct {
	Name string `json:"name"`
}

// jobName names the open session a verb's message is addressed at (the
// worker's dispatch looks it up once, for every such verb).
func (m *jobNameMsg) jobName() string   { return m.Name }
func (m *superstepMsg) jobName() string { return m.Name }
func (m *partRecvMsg) jobName() string  { return m.Name }
func (m *partDropMsg) jobName() string  { return m.Name }
func (m *deltaRunMsg) jobName() string  { return m.Name }

// jobEndMsg closes a job session. With Retain the worker seals its
// owned partitions' vertex indexes into a retained result version for
// the query tier instead of dropping them; without it (failed or
// canceled runs) the session tears down exactly as before — and any
// previously sealed version of the same base name keeps serving.
type jobEndMsg struct {
	Name   string `json:"name"`
	Retain bool   `json:"retain,omitempty"`
}

// jobEndReply reports what the worker sealed: the result version (the
// execution name), the partitions retained on this worker, and the
// run's partition table, which the query tier routes reads with.
type jobEndReply struct {
	Version string `json:"version,omitempty"`
	Parts   []int  `json:"parts,omitempty"`
	partTable
}

// queryPointMsg evaluates a batch of point lookups against an exact
// sealed result version. Every vid must route (by the deterministic
// vid→partition hash) to a partition the receiving worker retained.
type queryPointMsg struct {
	Version string   `json:"version"`
	Vids    []uint64 `json:"vids"`
}

type queryPointReply struct {
	Results []VertexQueryResult `json:"results"`
}

// queryTopKMsg asks a worker for its local top-k by vertex value; the
// coordinator merges the per-worker lists into the global answer.
type queryTopKMsg struct {
	Version string `json:"version"`
	K       int    `json:"k"`
}

type queryTopKReply struct {
	Entries []TopKEntry `json:"entries"`
}

// dumpReply carries one worker's share of the output: Rows, the
// attachment, holds a newline-terminated row per vertex of the worker's
// partitions, in vid order. The coordinator merges every worker's rows
// (mergeDumps).
type dumpReply struct {
	Rows []byte `json:"-"`
}

func (r *dumpReply) Attachments() []*[]byte { return []*[]byte{&r.Rows} }

// ckptPartData is one partition image — the unit every movement of
// partition state carries: the vertex relation and the pending
// combined-message file as packed frame-image byte streams, plus the
// statistics needed to restore the partition counters. On the control
// plane the two streams are attachments (imageFields), not JSON.
type ckptPartData struct {
	Part   int      `json:"part"`
	Vertex []byte   `json:"-"`
	Msg    []byte   `json:"-"`
	Stats  partStat `json:"stats"`
}

// imageFields lists images' streams as a frame's attachments: each
// one's vertex stream, then its msg stream.
func imageFields(parts []ckptPartData) []*[]byte {
	out := make([]*[]byte, 0, 2*len(parts))
	for i := range parts {
		out = append(out, &parts[i].Vertex, &parts[i].Msg)
	}
	return out
}

// reconfigureMsg reassigns cluster topology after a worker failure or
// an elastic rebalance: the receiving worker now owns exactly Owned
// (which may include node IDs adopted from a dead or drained process)
// and routes every peer through Peers.
type reconfigureMsg struct {
	Owned []string          `json:"owned"`
	Peers map[string]string `json:"peers"`
	// PurgeJobs names jobs whose parked wire streams the worker must
	// discard: after a migration the old topology's stragglers can never
	// be claimed (the resumed supersteps run under a new epoch suffix).
	PurgeJobs []string `json:"purgeJobs,omitempty"`
}

// partSendMsg asks a worker for partition images. The source is an
// open session's partitions — the named ones, or with All every one the
// worker owns (a checkpoint: the reply is then the "worker ack" of the
// commit protocol) — which stay live on the sender until partition.drop;
// or, with FromVersion set, the named partitions of that *sealed* result
// version in the worker's query store (Name is then ignored, and no
// partition.drop follows — the sealed original keeps serving reads).
type partSendMsg struct {
	Name        string `json:"name"`
	Parts       []int  `json:"parts,omitempty"`
	All         bool   `json:"all,omitempty"`
	FromVersion string `json:"fromVersion,omitempty"`
}

// partSendReply carries the requested partitions' images.
type partSendReply struct {
	Parts []ckptPartData `json:"parts"`
}

func (r *partSendReply) Attachments() []*[]byte { return imageFields(r.Parts) }

// partRecvMsg installs partition images on a worker. The session must
// already be open (job.begin); a worker that never loaded builds the
// deterministic partition table first. Before anything is installed the
// session adopts Splits — the controller's split list, so the table
// covers any child partition among Parts (or, with no Parts at all,
// simply grows or shrinks to it) — and Attempt, the epoch the next
// supersteps' specs are named under. Reset makes it a checkpoint
// restore: the session first drops all partition state and rebuilds its
// table at Splits' level, and Parts must cover every partition the
// worker owns.
type partRecvMsg struct {
	Name    string         `json:"name"`
	Attempt int64          `json:"attempt"`
	Parts   []ckptPartData `json:"parts,omitempty"`
	Splits  []splitRec     `json:"splits,omitempty"`
	Reset   bool           `json:"reset,omitempty"`
}

func (m *partRecvMsg) Attachments() []*[]byte { return imageFields(m.Parts) }

// partDropMsg reclaims partition copies: the worker drops their indexes
// and message files. Sent to the old owner only after the new owner
// acked partition.recv and the reconfigure broadcast committed — or to
// a receiver whose movement was aborted.
type partDropMsg struct {
	Name  string `json:"name"`
	Parts []int  `json:"parts"`
}

// deltaIngestMsg applies one journaled mutation batch to a delta
// session. The first ingest for Name opens the session: the worker
// rebuilds the job from Spec, clones its owned partitions of the sealed
// FromVersion (local sealed indexes directly; Ship carries images
// pulled from other workers for owned partitions sealed elsewhere), and
// only then applies mutations. Subsequent ingests for the same Name
// skip straight to application. Muts maps partition → mutations and
// contains only this worker's partitions; application order within a
// partition is the journal order (the Resolver contract).
type deltaIngestMsg struct {
	Name        string                   `json:"name"`
	FromVersion string                   `json:"fromVersion"`
	Spec        json.RawMessage          `json:"spec"`
	RunDir      string                   `json:"runDir"`
	Ship        []ckptPartData           `json:"ship,omitempty"`
	Muts        map[int][]delta.Mutation `json:"muts,omitempty"`
}

func (m *deltaIngestMsg) Attachments() []*[]byte { return imageFields(m.Ship) }

// deltaIngestReply reports the post-application partition counters and
// the accumulated dirty-set size on this worker.
type deltaIngestReply struct {
	Parts []partCount `json:"parts"`
	Dirty int64       `json:"dirty"`
}

// deltaRunMsg finalizes a delta session for superstep execution: the
// worker seeds each owned partition's live-vertex index with exactly
// its accumulated dirty set (clearing the halt flag on those records)
// and arms the session's global state so the first delta superstep runs
// as ss=2 — past both of the engine's superstep-1 full-activation
// gates, so only dirty vertices plus the message frontier compute.
type deltaRunMsg struct {
	Name string `json:"name"`
}

// deltaRunReply reports the armed session's partition counters; Live is
// the dirty count per partition.
type deltaRunReply struct {
	Parts []partCount `json:"parts"`
	Dirty int64       `json:"dirty"`
}
