package pregel

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Context gives the compute UDF access to superstep-scoped state and
// actions, mirroring the methods of Figure 9 (getSuperstep, sendMsg,
// aggregate, graph mutation, and the cached global state of Section 5.7).
type Context interface {
	// Superstep returns the current superstep number (1-based).
	Superstep() int64
	// NumVertices returns the global vertex count as of the end of the
	// previous superstep.
	NumVertices() int64
	// NumEdges returns the global edge count as of the end of the
	// previous superstep.
	NumEdges() int64
	// GlobalAggregate returns the global aggregate produced by the
	// previous superstep, or nil in superstep 1.
	GlobalAggregate() Value
	// Config returns a job configuration string (Figure 9's
	// conf.getLong pattern).
	Config(key string) string

	// SendMessage delivers m to the vertex with the given id at the
	// start of the next superstep. m is serialized immediately, so the
	// caller may reuse the Value.
	SendMessage(to VertexID, m Value)
	// Aggregate contributes v to the global aggregation function. v is
	// folded in through Aggregator.Merge at once, and Merge may keep
	// either argument: pass a Value of the program's own, not one the
	// engine lent to Compute.
	Aggregate(v Value)
	// AddVertex requests insertion of a new vertex at the end of the
	// superstep (conflicts resolved by the job's Resolver). v is
	// serialized immediately.
	AddVertex(v *Vertex)
	// RemoveVertex requests deletion of a vertex at the end of the
	// superstep.
	RemoveVertex(id VertexID)
}

// Program is the vertex compute UDF. It is invoked once per active
// vertex per superstep with the messages sent to that vertex in the
// previous superstep. The vertex may be mutated in place — its fields
// assigned, v.Edges appended to or truncated, Values replaced by the
// program's own — and the runtime persists it as Compute leaves it.
//
// v, v.Edges, the Values they hold and msgs (the slice and its Values)
// are the engine's, lent for the call: it decodes the next vertex and
// its messages into the same memory, as Value.Unmarshal says it may. They
// are valid until Compute returns; copy what is to be kept longer.
// SendMessage and AddVertex serialize their argument before they return,
// so passing such a Value, or reusing one between calls, is safe.
type Program interface {
	Compute(ctx Context, v *Vertex, msgs []Value) error
}

// ProgramFunc adapts a function to Program.
type ProgramFunc func(ctx Context, v *Vertex, msgs []Value) error

// Compute implements Program.
func (f ProgramFunc) Compute(ctx Context, v *Vertex, msgs []Value) error {
	return f(ctx, v, msgs)
}

// Combiner pre-aggregates messages addressed to the same destination
// (Table 2). Combine must be commutative and associative; it may reuse a.
type Combiner interface {
	Combine(a, b Value) Value
}

// CombinerFunc adapts a function to Combiner.
type CombinerFunc func(a, b Value) Value

// Combine implements Combiner.
func (f CombinerFunc) Combine(a, b Value) Value { return f(a, b) }

// Aggregator computes the global aggregate state across all vertices'
// contributions (Table 2). Merge must be commutative and associative.
type Aggregator interface {
	// Zero returns the identity element.
	Zero() Value
	// Merge folds two partial aggregates (or an aggregate and a vertex
	// contribution) into one; it may reuse a.
	Merge(a, b Value) Value
}

// Resolver reconciles graph mutations targeting one vertex id
// (Table 2's resolve UDF). Per the Pregel contract, deletions are
// applied before insertions, then Resolve settles remaining conflicts.
type Resolver interface {
	// Resolve returns the final vertex for vid, or nil to delete it.
	// existing is the pre-mutation vertex (nil if absent, or already
	// nil if removed was requested), additions are the AddVertex
	// requests in arrival order.
	Resolve(vid VertexID, existing *Vertex, additions []*Vertex, removed bool) *Vertex
}

// DefaultResolver applies the documented default conflict ordering:
// deletions first, then insertions, with the last addition winning.
// A duplicate addVertex of a vertex that survived deletion MERGES
// rather than replaces: the addition's value is adopted, the existing
// edge list is kept, and the vertex is reactivated — a duplicate insert
// must not silently drop a vertex's edges. After an explicit removal
// the insertion starts fresh (remove-then-add is the documented way to
// reset a vertex). Messages sent to a vertex that does not exist at
// delivery time — removed, or never created (a dangling edge's head) —
// are handled by the runtime, not the resolver: the vertex is
// materialized with the codec's zero value and computes the messages.
type DefaultResolver struct{}

// Resolve implements Resolver.
func (DefaultResolver) Resolve(vid VertexID, existing *Vertex, additions []*Vertex, removed bool) *Vertex {
	v := existing
	if removed {
		v = nil
	}
	if len(additions) > 0 {
		add := additions[len(additions)-1]
		if v != nil {
			v.Value = add.Value
			v.Halted = false
			return v
		}
		v = add
	}
	return v
}

// JoinKind selects the message-delivery join plan (Section 5.3.2).
type JoinKind int

const (
	// FullOuterJoin merges the message stream with a full vertex-index
	// scan; best when most vertices are live (PageRank).
	FullOuterJoin JoinKind = iota
	// LeftOuterJoin probes the vertex index per live vertex and message,
	// through the Vid live-vertex index; best for message-sparse
	// algorithms (SSSP).
	LeftOuterJoin
	// AutoJoin leaves the join to the planner, the cost-based choice the
	// paper leaves to future work (Section 9): before every superstep it
	// picks FullOuterJoin or LeftOuterJoin from the previous superstep's
	// message and live-vertex counts. Superstep 1 scans under every hint.
	AutoJoin
)

// GroupByKind selects the message-combination group-by (Section 5.3.1).
type GroupByKind int

const (
	// SortGroupBy buffers every message, sorts the buffer and folds equal
	// destinations afterwards, on both sides. It wins when there is no
	// combiner, or one whose result grows with every message (a gathered
	// list): nothing is rewritten as a group grows.
	SortGroupBy GroupByKind = iota
	// HashSortGroupBy keeps one accumulator per distinct destination in a
	// packed table, folds each message into it on arrival, and sorts only
	// what it spills or emits. It wins with a combiner whose result keeps
	// its size (a sum, a minimum): the state is a record per destination,
	// not per message. Without a combiner it is SortGroupBy.
	HashSortGroupBy
)

// ConnectorKind selects the message redistribution policy (Figure 7).
type ConnectorKind int

const (
	// UnmergeConnector is the m-to-n partitioning connector (fully
	// pipelined) with receiver-side re-grouping.
	UnmergeConnector ConnectorKind = iota
	// MergeConnector is the m-to-n partitioning merging connector
	// (sender-side materializing) with a one-pass preclustered
	// receiver-side group-by.
	MergeConnector
)

// StorageKind selects the vertex access method (Section 5.2).
type StorageKind int

const (
	// BTreeStorage favors in-place updates (PageRank).
	BTreeStorage StorageKind = iota
	// LSMStorage favors drastic size changes and frequent mutations
	// (path merging in genome assembly).
	LSMStorage
)

// hintNames spells each plan hint's values, indexed by value: what
// String prints and ApplyHints reads, the one spelling of the CLI flags
// and the serve API's fields.
var hintNames = map[string][]string{
	"join":      {FullOuterJoin: "fullouter", LeftOuterJoin: "leftouter", AutoJoin: "auto"},
	"groupby":   {SortGroupBy: "sort", HashSortGroupBy: "hashsort"},
	"connector": {UnmergeConnector: "unmerge", MergeConnector: "merge"},
	"storage":   {BTreeStorage: "btree", LSMStorage: "lsm"},
}

func hintName(hint string, v int) string {
	if names := hintNames[hint]; v >= 0 && v < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", hint, v)
}

func (k JoinKind) String() string      { return hintName("join", int(k)) }
func (k GroupByKind) String() string   { return hintName("groupby", int(k)) }
func (k ConnectorKind) String() string { return hintName("connector", int(k)) }
func (k StorageKind) String() string   { return hintName("storage", int(k)) }

// HintValues lists the spellings of one plan hint ("join", "groupby",
// "connector" or "storage") for a usage line: "sort | hashsort".
func HintValues(hint string) string { return strings.Join(hintNames[hint], " | ") }

// ApplyHints sets the plan hints given by their String spellings. An
// empty name leaves that hint as the job has it; an unknown one is an
// error, and the job is then not to be run.
func (j *Job) ApplyHints(join, groupBy, connector, storage string) error {
	return errors.Join(
		parseHint(&j.Join, "join", join),
		parseHint(&j.GroupBy, "groupby", groupBy),
		parseHint(&j.Connector, "connector", connector),
		parseHint(&j.Storage, "storage", storage))
}

func parseHint[K ~int](dst *K, hint, name string) error {
	if name == "" {
		return nil
	}
	if v := slices.Index(hintNames[hint], name); v >= 0 {
		*dst = K(v)
		return nil
	}
	return fmt.Errorf("bad %s hint %q (want %s)", hint, name, HintValues(hint))
}

// Job configures one Pregelix job: the program, its UDFs, value codecs,
// I/O paths, and the physical plan hints (2 joins x 2 group-bys x 2
// connectors x 2 storages = the 16 tailored executions of Section 5.8;
// AutoJoin lets the planner pick the join per superstep).
type Job struct {
	Name    string
	Program Program

	// Codec factories for the user's value types.
	Codec Codec

	// Optional UDFs.
	Combiner   Combiner
	Aggregator Aggregator
	Resolver   Resolver // nil = DefaultResolver

	// Physical plan hints (ApplyHints reads them by name).
	Join      JoinKind
	GroupBy   GroupByKind
	Connector ConnectorKind
	Storage   StorageKind

	// InputPath/OutputPath are DFS paths; Input is read unless the job
	// is pipelined after a compatible predecessor, and Output is
	// written unless a compatible successor is pipelined after it.
	InputPath  string
	OutputPath string

	// CheckpointEvery checkpoints state every N supersteps (0 = off).
	CheckpointEvery int
	// MaxSupersteps caps execution (0 = until convergence).
	MaxSupersteps int

	// Config carries algorithm parameters to the compute UDF.
	Config map[string]string
}

// Validate checks the job for completeness.
func (j *Job) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("pregel: job needs a name")
	}
	if j.Program == nil {
		return fmt.Errorf("pregel: job %s needs a Program", j.Name)
	}
	if j.Codec.NewVertexValue == nil {
		return fmt.Errorf("pregel: job %s needs Codec.NewVertexValue", j.Name)
	}
	if j.Codec.NewMessage == nil {
		return fmt.Errorf("pregel: job %s needs Codec.NewMessage", j.Name)
	}
	return nil
}

// ResolverOrDefault returns the configured resolver or the default.
func (j *Job) ResolverOrDefault() Resolver {
	if j.Resolver != nil {
		return j.Resolver
	}
	return DefaultResolver{}
}
