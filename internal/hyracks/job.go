package hyracks

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"pregelix/internal/tuple"
)

// FrameWriter is the push-based operator protocol, mirroring Hyracks'
// IFrameWriter: Open once, NextFrame zero or more times, then Close;
// Fail may be called instead of/before Close to abort downstream.
type FrameWriter interface {
	Open() error
	NextFrame(f *tuple.Frame) error
	Fail(err error)
	Close() error
}

// PushRuntime is an operator instance for one partition: it consumes
// frames as a FrameWriter and emits results to its output writers, which
// the executor wires before Open. Operators may have multiple output
// ports (Pregelix's compute operator feeds messages, global-state
// contributions, mutations and live-vertex flows simultaneously).
type PushRuntime interface {
	FrameWriter
	SetOutputs(outs []FrameWriter)
}

// SourceRuntime drives a pipeline: scans, generators, readers.
type SourceRuntime interface {
	SetOutputs(outs []FrameWriter)
	Run(ctx context.Context) error
}

// TaskContext carries per-task resources to operator runtimes.
type TaskContext struct {
	Ctx           context.Context
	Node          *NodeController
	JobName       string
	OperatorID    string
	Partition     int
	NumPartitions int
	// OperatorMem is the buffer budget for this task's memory-hungry
	// operators: the job-level carve when the spec sets one (multi-tenant
	// admission control), otherwise the node default.
	OperatorMem int64
	// RunDir is the job's node-local scratch subdirectory ("" = the
	// node's root scratch dir).
	RunDir string
	// ioCounter attributes temp-file I/O to the owning job (may be nil).
	ioCounter *atomic.Int64
}

// AddIOBytes records temp-file I/O against both the machine (cluster
// statistics) and the owning job (per-tenant statistics, so concurrent
// jobs on one cluster do not absorb each other's I/O).
func (tc *TaskContext) AddIOBytes(n int64) {
	tc.Node.AddIOBytes(n)
	if tc.ioCounter != nil {
		tc.ioCounter.Add(n)
	}
}

// TempPath returns a task-scoped temp file path on the task's node.
func (tc *TaskContext) TempPath(kind string) string {
	return tc.Node.TempPathIn(tc.RunDir, tc.JobName+"-"+tc.OperatorID+"-p"+strconv.Itoa(tc.Partition)+"-"+kind)
}

// OperatorDesc declares one logical operator of a job. Exactly one of
// NewSource or NewRuntime must be set.
type OperatorDesc struct {
	ID string
	// Partitions is the parallelism; each partition becomes one task.
	Partitions int
	// Locations are absolute location constraints: Locations[i] is the
	// node that must run partition i. Nil means the scheduler chooses
	// (count-constrained round robin over live nodes).
	Locations []NodeID

	NewSource  func(tc *TaskContext) (SourceRuntime, error)
	NewRuntime func(tc *TaskContext) (PushRuntime, error)
}

// ConnectorType selects the data exchange pattern (Section 4
// "Connectors").
type ConnectorType int

const (
	// OneToOne pipes partition i of the producer straight into partition
	// i of the consumer on the same node (fused into one task).
	OneToOne ConnectorType = iota
	// MToNPartitioning repartitions tuples by a partitioning function;
	// fully pipelined.
	MToNPartitioning
	// MToNPartitioningMerging repartitions and merges sorted sender
	// streams at the receiver by a comparator; the sender side uses the
	// materializing-pipelined policy to avoid the scheduling deadlocks
	// noted in Section 5.3.1.
	MToNPartitioningMerging
	// ReduceToOne funnels all sender partitions into consumer partition
	// 0 (the aggregator connector used for global state).
	ReduceToOne
)

func (t ConnectorType) String() string {
	switch t {
	case OneToOne:
		return "one-to-one"
	case MToNPartitioning:
		return "m-to-n-partitioning"
	case MToNPartitioningMerging:
		return "m-to-n-partitioning-merging"
	case ReduceToOne:
		return "reduce-to-one"
	default:
		return fmt.Sprintf("connector(%d)", int(t))
	}
}

// Partitioner maps a tuple (seen in place through its frame ref) to a
// consumer partition in [0, n).
type Partitioner func(r tuple.TupleRef, n int) int

// HashPartitioner partitions by FNV-1a over the given field — the
// default vid hash partitioning of Section 5.2. The hash reads the field
// bytes directly out of the frame buffer.
func HashPartitioner(field int) Partitioner {
	return func(r tuple.TupleRef, n int) int {
		const (
			offset64 = 14695981039346656037
			prime64  = 1099511628211
		)
		h := uint64(offset64)
		for _, b := range r.Field(field) {
			h ^= uint64(b)
			h *= prime64
		}
		return int(h % uint64(n))
	}
}

// ConnectorDesc links a producer output port to a consumer operator.
type ConnectorDesc struct {
	From     string // producer operator ID
	FromPort int    // producer output port index
	To       string // consumer operator ID
	Type     ConnectorType
	// Partitioner is required for MToN types.
	Partitioner Partitioner
	// Comparator is required for the merging connector; it orders
	// tuples in place by their frame refs.
	Comparator tuple.RefComparator
	// Materialized forces the sender-side materializing pipelined policy
	// on a non-merging connector (merging connectors always use it).
	Materialized bool
	// BufferFrames is the per-channel frame buffer (default 8),
	// modelling bounded network buffers.
	BufferFrames int
}

// JobSpec is a dataflow DAG.
type JobSpec struct {
	Name  string
	Ops   []*OperatorDesc
	Conns []*ConnectorDesc
	// OperatorMemBytes overrides each node's default per-operator buffer
	// budget for this job's tasks (0 = node default). Job admission
	// (core.Gate) uses it to carve a share of the machine budget per
	// admitted job so concurrent jobs spill instead of overcommitting.
	OperatorMemBytes int64
	// RunDir is a node-relative scratch subdirectory isolating this
	// job's temp files from other tenants ("" = node root).
	RunDir string
	// IOCounter, when set, receives the job's temp-file I/O bytes so
	// statistics stay per-tenant on a shared cluster.
	IOCounter *atomic.Int64
}

// AddOp appends an operator and returns it for chaining.
func (j *JobSpec) AddOp(op *OperatorDesc) *OperatorDesc {
	j.Ops = append(j.Ops, op)
	return op
}

// Connect appends a connector.
func (j *JobSpec) Connect(c *ConnectorDesc) {
	j.Conns = append(j.Conns, c)
}

func (j *JobSpec) op(id string) *OperatorDesc {
	for _, o := range j.Ops {
		if o.ID == id {
			return o
		}
	}
	return nil
}

// Validate checks structural invariants of the DAG.
func (j *JobSpec) Validate() error {
	seen := map[string]bool{}
	for _, o := range j.Ops {
		if o.ID == "" {
			return fmt.Errorf("job %s: operator with empty ID", j.Name)
		}
		if seen[o.ID] {
			return fmt.Errorf("job %s: duplicate operator %s", j.Name, o.ID)
		}
		seen[o.ID] = true
		if o.Partitions <= 0 {
			return fmt.Errorf("job %s: operator %s has %d partitions", j.Name, o.ID, o.Partitions)
		}
		if (o.NewSource == nil) == (o.NewRuntime == nil) {
			return fmt.Errorf("job %s: operator %s must set exactly one of NewSource/NewRuntime", j.Name, o.ID)
		}
		if o.Locations != nil && len(o.Locations) != o.Partitions {
			return fmt.Errorf("job %s: operator %s has %d locations for %d partitions", j.Name, o.ID, len(o.Locations), o.Partitions)
		}
	}
	for _, c := range j.Conns {
		from, to := j.op(c.From), j.op(c.To)
		if from == nil || to == nil {
			return fmt.Errorf("job %s: connector %s->%s references unknown operator", j.Name, c.From, c.To)
		}
		switch c.Type {
		case OneToOne:
			if from.Partitions != to.Partitions {
				return fmt.Errorf("job %s: one-to-one %s->%s with mismatched partitions %d vs %d",
					j.Name, c.From, c.To, from.Partitions, to.Partitions)
			}
		case MToNPartitioning, MToNPartitioningMerging:
			if c.Partitioner == nil {
				return fmt.Errorf("job %s: connector %s->%s needs a partitioner", j.Name, c.From, c.To)
			}
			if c.Type == MToNPartitioningMerging && c.Comparator == nil {
				return fmt.Errorf("job %s: merging connector %s->%s needs a comparator", j.Name, c.From, c.To)
			}
		case ReduceToOne:
			if to.Partitions != 1 {
				return fmt.Errorf("job %s: reduce-to-one %s->%s requires 1 consumer partition", j.Name, c.From, c.To)
			}
		}
	}
	return nil
}
