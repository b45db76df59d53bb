package hyracks

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"pregelix/internal/tuple"
)

func testCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := NewCluster(t.TempDir(), n, NodeConfig{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// collectSink gathers all tuples received by any partition of a sink op.
type collector struct {
	mu     sync.Mutex
	tuples []tuple.Tuple
	byPart map[int][]tuple.Tuple
}

func newCollector() *collector {
	return &collector{byPart: make(map[int][]tuple.Tuple)}
}

func (c *collector) sinkOp(id string, partitions int) *OperatorDesc {
	return &OperatorDesc{
		ID:         id,
		Partitions: partitions,
		NewRuntime: func(tc *TaskContext) (PushRuntime, error) {
			p := tc.Partition
			return &FuncRuntime{
				OnTuple: func(_ *BaseRuntime, t tuple.Tuple) error {
					c.mu.Lock()
					c.tuples = append(c.tuples, t.Clone())
					c.byPart[p] = append(c.byPart[p], t.Clone())
					c.mu.Unlock()
					return nil
				},
			}, nil
		},
	}
}

// rangeSource emits tuples (vid, payload) for vid in [lo,hi) split across
// partitions.
func rangeSource(id string, partitions, n int, sorted bool) *OperatorDesc {
	return &OperatorDesc{
		ID:         id,
		Partitions: partitions,
		NewSource: func(tc *TaskContext) (SourceRuntime, error) {
			part := tc.Partition
			return &FuncSource{F: func(ctx context.Context, b *BaseSource) error {
				for i := part; i < n; i += partitions {
					t := tuple.Tuple{tuple.EncodeUint64(uint64(i)), []byte(fmt.Sprintf("v%d", i))}
					if err := b.Emit(0, t); err != nil {
						return err
					}
				}
				return nil
			}}, nil
		},
	}
}

func TestMToNPartitioning(t *testing.T) {
	cluster := testCluster(t, 4)
	col := newCollector()
	spec := &JobSpec{Name: "mton"}
	spec.AddOp(rangeSource("src", 3, 1000, false))
	spec.AddOp(col.sinkOp("sink", 4))
	spec.Connect(&ConnectorDesc{From: "src", To: "sink", Type: MToNPartitioning, Partitioner: HashPartitioner(0)})
	if _, err := RunJob(context.Background(), cluster, spec); err != nil {
		t.Fatal(err)
	}
	if len(col.tuples) != 1000 {
		t.Fatalf("got %d tuples, want 1000", len(col.tuples))
	}
	// Same key must land in the same partition.
	keyPart := map[uint64]int{}
	for p, ts := range col.byPart {
		for _, tp := range ts {
			k := tuple.DecodeUint64(tp[0])
			if prev, ok := keyPart[k]; ok && prev != p {
				t.Fatalf("key %d in two partitions", k)
			}
			keyPart[k] = p
		}
	}
	// All 4 partitions should receive something for 1000 hashed keys.
	if len(col.byPart) != 4 {
		t.Fatalf("only %d partitions received data", len(col.byPart))
	}
}

func TestOneToOneFusion(t *testing.T) {
	cluster := testCluster(t, 2)
	col := newCollector()
	spec := &JobSpec{Name: "fuse"}
	spec.AddOp(rangeSource("src", 2, 100, false))
	// A fused doubling transform.
	spec.AddOp(&OperatorDesc{
		ID:         "double",
		Partitions: 2,
		NewRuntime: func(tc *TaskContext) (PushRuntime, error) {
			return &FuncRuntime{OnTuple: func(b *BaseRuntime, tp tuple.Tuple) error {
				v := tuple.DecodeUint64(tp[0])
				return b.Emit(0, tuple.Tuple{tuple.EncodeUint64(v * 2)})
			}}, nil
		},
	})
	spec.AddOp(col.sinkOp("sink", 2))
	spec.Connect(&ConnectorDesc{From: "src", To: "double", Type: OneToOne})
	spec.Connect(&ConnectorDesc{From: "double", To: "sink", Type: OneToOne})
	if _, err := RunJob(context.Background(), cluster, spec); err != nil {
		t.Fatal(err)
	}
	if len(col.tuples) != 100 {
		t.Fatalf("got %d tuples", len(col.tuples))
	}
	sum := uint64(0)
	for _, tp := range col.tuples {
		sum += tuple.DecodeUint64(tp[0])
	}
	if want := uint64(99 * 100); sum != want { // 2 * sum(0..99)
		t.Fatalf("sum %d want %d", sum, want)
	}
}

func TestReduceToOne(t *testing.T) {
	cluster := testCluster(t, 3)
	col := newCollector()
	spec := &JobSpec{Name: "reduce"}
	spec.AddOp(rangeSource("src", 3, 300, false))
	spec.AddOp(col.sinkOp("sink", 1))
	spec.Connect(&ConnectorDesc{From: "src", To: "sink", Type: ReduceToOne})
	if _, err := RunJob(context.Background(), cluster, spec); err != nil {
		t.Fatal(err)
	}
	if len(col.tuples) != 300 || len(col.byPart) != 1 {
		t.Fatalf("tuples=%d partitions=%d", len(col.tuples), len(col.byPart))
	}
}

// sortedRangeSource emits each partition's share in ascending vid order,
// as required by merging connectors.
func sortedRangeSource(id string, partitions, n int) *OperatorDesc {
	return rangeSource(id, partitions, n, true) // i increments monotonically per partition
}

func TestMergingConnectorProducesSortedStream(t *testing.T) {
	cluster := testCluster(t, 4)
	var mu sync.Mutex
	perPart := map[int][]uint64{}
	spec := &JobSpec{Name: "merge"}
	spec.AddOp(sortedRangeSource("src", 4, 2000))
	spec.AddOp(&OperatorDesc{
		ID:         "sink",
		Partitions: 2,
		NewRuntime: func(tc *TaskContext) (PushRuntime, error) {
			p := tc.Partition
			return &FuncRuntime{OnTuple: func(_ *BaseRuntime, tp tuple.Tuple) error {
				mu.Lock()
				perPart[p] = append(perPart[p], tuple.DecodeUint64(tp[0]))
				mu.Unlock()
				return nil
			}}, nil
		},
	})
	spec.Connect(&ConnectorDesc{
		From: "src", To: "sink",
		Type:        MToNPartitioningMerging,
		Partitioner: HashPartitioner(0),
		Comparator:  tuple.Field0RefCompare,
	})
	if _, err := RunJob(context.Background(), cluster, spec); err != nil {
		t.Fatal(err)
	}
	total := 0
	for p, vids := range perPart {
		if !sort.SliceIsSorted(vids, func(i, j int) bool { return vids[i] < vids[j] }) {
			t.Fatalf("partition %d: merged stream not sorted", p)
		}
		total += len(vids)
	}
	if total != 2000 {
		t.Fatalf("total %d want 2000", total)
	}
}

// TestMaterializedConnector checks which connectors take the
// sender-side materializing policy: a merging one always does, a
// reduce-to-one never.
func TestMaterializedConnector(t *testing.T) {
	cluster := testCluster(t, 2)
	col := newCollector()
	spec := &JobSpec{Name: "mat"}
	spec.AddOp(sortedRangeSource("src", 2, 500))
	spec.AddOp(col.sinkOp("sink", 2))
	spec.Connect(&ConnectorDesc{
		From: "src", To: "sink",
		Type: MToNPartitioningMerging, Partitioner: HashPartitioner(0),
		Comparator: tuple.Field0RefCompare,
	})
	if _, err := RunJob(context.Background(), cluster, spec); err != nil {
		t.Fatal(err)
	}
	if len(col.tuples) != 500 {
		t.Fatalf("got %d tuples", len(col.tuples))
	}
	// Materialization must have produced temp-file I/O on the nodes.
	var io int64
	for _, n := range cluster.Nodes() {
		io += n.IOBytes()
	}
	if io == 0 {
		t.Fatal("expected temp-file I/O from materializing policy")
	}

	cluster = testCluster(t, 2)
	col = newCollector()
	spec = &JobSpec{Name: "mat-reduce"}
	spec.AddOp(rangeSource("src", 2, 500, false))
	spec.AddOp(col.sinkOp("sink", 1))
	spec.Connect(&ConnectorDesc{From: "src", To: "sink", Type: ReduceToOne})
	if _, err := RunJob(context.Background(), cluster, spec); err != nil {
		t.Fatal(err)
	}
	if len(col.tuples) != 500 {
		t.Fatalf("reduce-to-one: got %d tuples", len(col.tuples))
	}
	for _, n := range cluster.Nodes() {
		if n.IOBytes() != 0 {
			t.Fatalf("reduce-to-one materialized: node %s did %d bytes of temp-file I/O", n.ID, n.IOBytes())
		}
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	cluster := testCluster(t, 2)
	boom := errors.New("boom")
	col := newCollector()
	spec := &JobSpec{Name: "err"}
	spec.AddOp(&OperatorDesc{
		ID: "src", Partitions: 2,
		NewSource: func(tc *TaskContext) (SourceRuntime, error) {
			return &FuncSource{F: func(ctx context.Context, b *BaseSource) error {
				if tc.Partition == 1 {
					return boom
				}
				for i := 0; i < 100000; i++ {
					if err := b.Emit(0, tuple.Tuple{tuple.EncodeUint64(uint64(i))}); err != nil {
						return err
					}
				}
				return nil
			}}, nil
		},
	})
	spec.AddOp(col.sinkOp("sink", 2))
	spec.Connect(&ConnectorDesc{From: "src", To: "sink", Type: MToNPartitioning, Partitioner: HashPartitioner(0)})
	_, err := RunJob(context.Background(), cluster, spec)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestNodeFailureSurfaces(t *testing.T) {
	cluster := testCluster(t, 3)
	cluster.Nodes()[1].Fail()
	col := newCollector()
	spec := &JobSpec{Name: "nodefail"}
	src := rangeSource("src", 3, 10, false)
	src.Locations = []NodeID{"nc1", "nc2", "nc3"}
	spec.AddOp(src)
	spec.AddOp(col.sinkOp("sink", 1))
	spec.Connect(&ConnectorDesc{From: "src", To: "sink", Type: ReduceToOne})
	_, err := RunJob(context.Background(), cluster, spec)
	var nf *NodeFailure
	if !errors.As(err, &nf) || nf.Node != "nc2" {
		t.Fatalf("want NodeFailure{nc2}, got %v", err)
	}
}

func TestSchedulerHonorsConstraintsAndBlacklist(t *testing.T) {
	cluster := testCluster(t, 3)
	cluster.Blacklist("nc2")
	spec := &JobSpec{Name: "sched"}
	pinned := rangeSource("pinned", 2, 1, false)
	pinned.Locations = []NodeID{"nc3", "nc1"}
	spec.AddOp(pinned)
	free := rangeSource("free", 4, 1, false)
	spec.AddOp(free)
	assign, err := Schedule(cluster, spec)
	if err != nil {
		t.Fatal(err)
	}
	if assign["pinned"][0].ID != "nc3" || assign["pinned"][1].ID != "nc1" {
		t.Fatalf("pinned constraints violated: %v", assign["pinned"])
	}
	for _, n := range assign["free"] {
		if n.ID == "nc2" {
			t.Fatal("scheduler used blacklisted node")
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	cluster := testCluster(t, 1)
	cases := []*JobSpec{
		func() *JobSpec { // duplicate op
			s := &JobSpec{Name: "dup"}
			s.AddOp(rangeSource("a", 1, 1, false))
			s.AddOp(rangeSource("a", 1, 1, false))
			return s
		}(),
		func() *JobSpec { // unknown connector target
			s := &JobSpec{Name: "unknown"}
			s.AddOp(rangeSource("a", 1, 1, false))
			s.Connect(&ConnectorDesc{From: "a", To: "zzz", Type: OneToOne})
			return s
		}(),
		func() *JobSpec { // m-to-n without partitioner
			s := &JobSpec{Name: "nopart"}
			s.AddOp(rangeSource("a", 1, 1, false))
			s.AddOp(newCollector().sinkOp("b", 1))
			s.Connect(&ConnectorDesc{From: "a", To: "b", Type: MToNPartitioning})
			return s
		}(),
		func() *JobSpec { // one-to-one partition mismatch
			s := &JobSpec{Name: "mismatch"}
			s.AddOp(rangeSource("a", 2, 1, false))
			s.AddOp(newCollector().sinkOp("b", 3))
			s.Connect(&ConnectorDesc{From: "a", To: "b", Type: OneToOne})
			return s
		}(),
	}
	for _, spec := range cases {
		if _, err := RunJob(context.Background(), cluster, spec); err == nil {
			t.Fatalf("spec %s: expected validation error", spec.Name)
		}
	}
}

func TestMultiPortOutputs(t *testing.T) {
	cluster := testCluster(t, 2)
	evens, odds := newCollector(), newCollector()
	spec := &JobSpec{Name: "ports"}
	spec.AddOp(&OperatorDesc{
		ID: "split", Partitions: 2,
		NewSource: func(tc *TaskContext) (SourceRuntime, error) {
			part := tc.Partition
			return &FuncSource{F: func(ctx context.Context, b *BaseSource) error {
				for i := part; i < 100; i += 2 {
					port := i % 2
					if err := b.Emit(port, tuple.Tuple{tuple.EncodeUint64(uint64(i))}); err != nil {
						return err
					}
				}
				return nil
			}}, nil
		},
	})
	spec.AddOp(evens.sinkOp("evens", 1))
	spec.AddOp(odds.sinkOp("odds", 1))
	spec.Connect(&ConnectorDesc{From: "split", FromPort: 0, To: "evens", Type: ReduceToOne})
	spec.Connect(&ConnectorDesc{From: "split", FromPort: 1, To: "odds", Type: ReduceToOne})
	if _, err := RunJob(context.Background(), cluster, spec); err != nil {
		t.Fatal(err)
	}
	if len(evens.tuples) != 50 || len(odds.tuples) != 50 {
		t.Fatalf("evens=%d odds=%d", len(evens.tuples), len(odds.tuples))
	}
	for _, tp := range evens.tuples {
		if tuple.DecodeUint64(tp[0])%2 != 0 {
			t.Fatal("odd value on even port")
		}
	}
}

func TestConnStatsRecorded(t *testing.T) {
	cluster := testCluster(t, 2)
	col := newCollector()
	spec := &JobSpec{Name: "stats"}
	spec.AddOp(rangeSource("src", 2, 200, false))
	spec.AddOp(col.sinkOp("sink", 2))
	spec.Connect(&ConnectorDesc{From: "src", To: "sink", Type: MToNPartitioning, Partitioner: HashPartitioner(0)})
	res, err := RunJob(context.Background(), cluster, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := res.ConnStats["src->sink"]
	if st == nil || st.Tuples() != 200 {
		t.Fatal("conn stats missing or wrong tuple count")
	}
}

// TestPlanRunsRounds: one prepared plan runs round after round, each
// with its own connector statistics; a failed round leaves it ready for
// the next, and Close ends its goroutines.
func TestPlanRunsRounds(t *testing.T) {
	cluster := testCluster(t, 2)
	goroutines := runtime.NumGoroutine()
	col := newCollector()
	boom := errors.New("boom")
	var failNext bool
	spec := &JobSpec{Name: "rounds"}
	src := rangeSource("src", 2, 1000, false)
	inner := src.NewSource
	src.NewSource = func(tc *TaskContext) (SourceRuntime, error) {
		if failNext && tc.Partition == 1 {
			return nil, boom
		}
		return inner(tc)
	}
	spec.AddOp(src)
	spec.AddOp(col.sinkOp("sink", 2))
	spec.Connect(&ConnectorDesc{From: "src", To: "sink", Type: MToNPartitioning, Partitioner: HashPartitioner(0)})
	p, err := Prepare(cluster, spec, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		failNext = round == 2
		res, err := p.Run(context.Background(), fmt.Sprintf("rounds-%d", round))
		if failNext {
			if !errors.Is(err, boom) {
				t.Fatalf("round %d: want boom, got %v", round, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if n := res.ConnStats["src->sink"].Tuples(); n != 1000 {
			t.Fatalf("round %d counted %d tuples, want its own 1000", round, n)
		}
	}
	if got := len(col.tuples); got < 3000 {
		t.Fatalf("three clean rounds delivered %d tuples", got)
	}
	p.Close()
	p.Close()
	// A parked goroutine marks itself done just before it returns, so the
	// count may lag Close by a moment: wait for it, within a bound.
	now := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); now > goroutines && time.Now().Before(deadline); now = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if now > goroutines {
		t.Fatalf("%d goroutines after Close, %d before Prepare", now, goroutines)
	}
}
