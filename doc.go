// Package pregelix is a Go reproduction of "Pregelix: Big(ger) Graph
// Analytics on a Dataflow Engine" (Bu, Borkar, Jia, Carey, Condie;
// VLDB 2014).
//
// Pregelix implements the Pregel vertex-centric programming model as an
// iterative dataflow of relational operators: message passing is a join
// between the Msg and Vertex relations, message combination is a
// group-by, and global state maintenance is a two-stage aggregation:
// each compute task pre-aggregates its partition, and the superstep
// driver folds the partitions' votes from the superstep replies.
// Because every operator and access method is out-of-core capable, the
// same plans run in-memory and disk-based workloads transparently.
//
// # Packed frames
//
// Tuples move between operators in packed byte-buffer frames
// (internal/tuple), mirroring the fixed-size binary frame transport the
// paper's performance rests on. A frame is one contiguous buffer:
//
//	[ tuple records ... | free | slot directory | tuple count ]
//	 0 ............ dataEnd                cap-4-4*count   cap-4
//
// The slot directory grows backward from the end of the buffer; slot i
// holds the end offset of record i. Each record is self-describing:
// u32 field count, per-field u32 end offsets, then the field bytes.
// Writers pack tuples with a tuple.FrameAppender; readers access fields
// in place through tuple.TupleRef subslices — no per-tuple or per-field
// objects are materialized on the data path, and frames are recycled
// through a pool.
//
// Ownership rules: a frame passed to FrameWriter.NextFrame is borrowed —
// the callee must copy anything it retains past the call, either packed
// (FrameAppender.AppendRef, one memmove) or boxed (TupleRef.Materialize,
// the compatibility view for call sites that legitimately keep data
// beyond frame lifetime, e.g. hash-table accumulators). A frame received
// from a connector channel is owned by the receiver, which returns it to
// the pool with tuple.PutFrame once drained; the pool asserts that no
// frame is released twice or recycled while still leased.
//
// # Fault tolerance
//
// Because every superstep is a deterministic dataflow job over
// B-tree/DFS state, failure handling is checkpoint-and-replay rather
// than in-memory state replication (Section 5.5). At user-selected
// superstep boundaries (Job.CheckpointEvery) the Vertex relation and
// the pending combined-message files are snapshotted per partition as
// packed frame images into a replicated file system, and a manifest —
// superstep, global state, partition→file map — is committed atomically
// (staged, then renamed) only once every partition image is durable.
// Recovery finds the highest committed manifest, rebuilds the vertex
// indexes (and the derivable Vid index) from the snapshots, and re-runs
// from the checkpointed superstep; application errors are forwarded to
// the user, never retried.
//
// Both execution shapes implement this under one superstep driver
// (internal/core/jobrun.go): the join choice, the global-state fold, the
// halt rule, the statistics, the checkpoint cadence and the
// rewind-and-retry on a machine loss are written once, over a narrow
// seam with an in-process and a cluster implementation; what one process
// does for a superstep, a delta ingest or a seal is one runState method
// either way. In a single process the failure manager blacklists the failed simulated machine and reloads onto the
// survivors. In the multi-process cluster the coordinator detects a
// dead worker (broken control connection, or missed heartbeats for a
// hung one), aborts the in-flight superstep on the survivors, repairs
// the topology — a standby `pregelix worker` adopts the dead worker's
// node IDs, or they are redistributed over the survivors — restores
// every partition from its own replicated checkpoint store, and resumes
// the loop; recovered results are identical to a failure-free run. See
// ARCHITECTURE.md for the recovery state machine and the manifest
// format, and internal/core/checkpoint.go for the commit protocol.
//
// # Elasticity
//
// The cluster also grows and shrinks while jobs run. A `pregelix
// worker` joining a running cluster triggers a coordinator-driven
// rebalance at the next superstep (or job) boundary: whole partitions —
// vertex index plus pending message frames, the same snapshot images a
// checkpoint writes, moved by the same two verbs (partition.send images
// partitions, partition.recv installs them; a checkpoint is a send of
// every owned partition, a restore a recv after a session reset) —
// migrate onto the new worker over the control plane, ownership and
// peer routing flip via cluster.reconfigure, partition.drop reclaims
// the originals, and the loop resumes under a fresh recovery-epoch spec
// name. A graceful drain (`pregelix worker -drain`
// + SIGTERM, or POST /scale) migrates a departing worker's partitions
// out before releasing it. Unlike crash recovery nothing rolls back, no
// superstep is lost, and no checkpoint is required; results are
// identical to a static run. See the Elasticity section of
// ARCHITECTURE.md for the migration state machine.
//
// Every action the coordinator takes on its own — a worker declared
// lost, a standby adoption or redistribution, a rollback, a scale-out,
// a drain, a hot-partition split, a straggler relief, a join switch —
// is one Event in one log, Coordinator.Events(), served as `events` on
// GET /stats and GET /scale and written to the coordinator's log output
// as one line each.
//
// Layout:
//
//   - pregel            — the user-facing Pregel API (Program, Combiner,
//     Aggregator, Resolver, Job with plan hints)
//   - pregel/algorithms — the built-in algorithm library (PageRank,
//     SSSP, CC, reachability, BFS tree, triangles, cliques, sampling,
//     path merging)
//   - internal/hyracks  — the shared-nothing dataflow engine substrate,
//     including the constraint scheduler and the connector Transport
//     abstraction (in-process channels or the real wire)
//   - internal/wire     — the network transport: per-stream multiplexed
//     frame images over one TCP connection per process pair with
//     credit-based backpressure, plus the cluster control plane: the
//     worker registration handshake, the worker.drain notification and
//     19 controller→worker verbs (ping, heartbeat, dfs.put; job.begin,
//     job.load, job.superstep, job.dump, job.cancel, job.abort, job.end;
//     cluster.reconfigure; the image verbs partition.send, partition.recv
//     and partition.drop, which carry checkpoint, restore, migration,
//     split and delta clone alike; worker.release; query.point,
//     query.topk; delta.ingest, delta.run)
//   - internal/storage  — B-tree, buffer cache, run files
//   - internal/operators— external sort, three group-bys, index joins
//   - internal/core     — the Pregelix runtime (plan generator, the
//     superstep driver, checkpoint/recovery, job pipelining), job
//     admission (Gate: FIFO queue, bounded in-flight jobs, per-job
//     operator-memory carves; a queued job is canceled through its
//     context) with Runtime.RunAdmitted, the entry of a job that
//     holds one of its slots, and the cluster Coordinator/worker pair
//     that runs jobs across separate node-controller OS processes,
//     with the partition-image mover under checkpoint, restore, split
//     and the elastic rebalancer (live scale-out and graceful drain)
//   - internal/dfs      — a small replicated distributed file system
//   - internal/baselines— simulations of Giraph/Hama/GraphLab/GraphX
//   - internal/bench    — the Section 7 experiment harness plus the
//     concurrent-jobs throughput experiment
//
// Quickstart: see examples/quickstart, or run
//
//	go run ./cmd/pregelix -algorithm pagerank -input graph.txt
//
// Serving mode is one HTTP server, job table, delta tracker and set of
// query routes (cmd/pregelix) over either engine; only the backend
// behind them differs. Concurrent job submissions against one shared
// simulated cluster:
//
//	go run ./cmd/pregelix serve -listen 127.0.0.1:8080 -max-concurrent 2
//
// The same API over separate worker processes, frame shuffle over TCP:
//
//	go run ./cmd/pregelix serve -listen 127.0.0.1:8080 -workers 2 -cluster-listen 127.0.0.1:9090
//	go run ./cmd/pregelix worker -cc 127.0.0.1:9090 -nodes 2   # twice
//
// Programmatically, run concurrent jobs through one core.Gate: take a
// ticket per job, then wait for a slot, run under its memory carve and
// release it (job.Name unique per submission):
//
//	rt, _ := core.NewRuntime(core.Options{BaseDir: dir, Nodes: 4})
//	gate := core.NewGate(rt.Cluster, 2)
//	t, _ := gate.Enter() // queued; admitted FIFO
//	if err := t.Wait(ctx); err == nil {
//		stats, err := rt.RunAdmitted(ctx, job, t.OperatorMem())
//		t.Release(err)
//	}
//
// Every table and figure of the paper's evaluation is regenerable via
//
//	go run ./cmd/pregelix-bench -experiment all
//
// which with -json <path> also writes a machine-readable report
// (including the packed message path's allocations per tuple from the
// framepath experiment); see README.md for the Gate API tour
// and the frame memory layout.
package pregelix
