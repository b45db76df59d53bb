package hyracks

import (
	"context"
	"sync/atomic"
	"testing"

	"pregelix/internal/tuple"
)

// TestManyConcurrentJobs runs several jobs on the same cluster in
// parallel, the execution mode behind the Figure 13 throughput study.
func TestManyConcurrentJobs(t *testing.T) {
	cluster := testCluster(t, 4)
	const jobs = 6
	var total atomic.Int64
	errs := make(chan error, jobs)
	for j := 0; j < jobs; j++ {
		j := j
		go func() {
			col := newCollector()
			spec := &JobSpec{Name: "conc"}
			spec.AddOp(rangeSource("src", 2, 500, false))
			spec.AddOp(col.sinkOp("sink", 2))
			spec.Connect(&ConnectorDesc{From: "src", To: "sink", Type: MToNPartitioning, Partitioner: HashPartitioner(0)})
			_, err := RunJob(context.Background(), cluster, spec)
			if err == nil {
				total.Add(int64(len(col.tuples)))
			}
			errs <- err
			_ = j
		}()
	}
	for j := 0; j < jobs; j++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if total.Load() != jobs*500 {
		t.Fatalf("total tuples %d", total.Load())
	}
}

// TestCancelledContextStopsJob verifies jobs abort promptly on caller
// cancellation rather than leaking goroutines on full channels.
func TestCancelledContextStopsJob(t *testing.T) {
	cluster := testCluster(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	spec := &JobSpec{Name: "cancel"}
	spec.AddOp(&OperatorDesc{
		ID: "src", Partitions: 2,
		NewSource: func(tc *TaskContext) (SourceRuntime, error) {
			return &FuncSource{F: func(ctx context.Context, b *BaseSource) error {
				for i := 0; ; i++ { // endless producer
					if err := b.Emit(0, tuple.Tuple{tuple.EncodeUint64(uint64(i))}); err != nil {
						return err
					}
				}
			}}, nil
		},
	})
	// A consumer that stalls until cancellation: the bounded channel
	// fills and the producers block on the connector until the context
	// is cancelled.
	slow := &OperatorDesc{
		ID: "sink", Partitions: 1,
		NewRuntime: func(tc *TaskContext) (PushRuntime, error) {
			return &FuncRuntime{OnTuple: func(_ *BaseRuntime, _ tuple.Tuple) error {
				<-tc.Ctx.Done()
				return tc.Ctx.Err()
			}}, nil
		},
	}
	spec.AddOp(slow)
	spec.Connect(&ConnectorDesc{From: "src", To: "sink", Type: MToNPartitioning, Partitioner: toOne, BufferFrames: 1})

	done := make(chan error, 1)
	go func() {
		_, err := RunJob(ctx, cluster, spec)
		done <- err
	}()
	cancel()
	err := <-done
	if err == nil {
		t.Fatal("cancelled job returned nil")
	}
}
