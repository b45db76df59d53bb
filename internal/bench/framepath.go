package bench

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"pregelix/internal/hyracks"
	"pregelix/internal/operators"
	"pregelix/internal/tuple"
)

// The frame-path experiment measures the message hot path (compute
// source → partitioning connector → group-by → sink) on packed frames:
// heap allocations and nanoseconds per tuple. BENCH_PR2.json records the
// seed's boxed-tuple pipeline on the same path (~3.0 allocations per
// tuple); benchmark/'s traced tuple.allocs_per_tuple tracks the packed
// one PR to PR.

// msgPathTuples is the tuple count per measured operation.
const msgPathTuples = 100_000

const (
	msgPathSenders   = 4
	msgPathReceivers = 4
	msgPathPayload   = 16
)

// RunPackedMessagePath pushes n (vid, payload) tuples through a real
// dataflow job — source, m-to-n hash partitioning connector, sort-based
// group-by, frame-packing sink — and returns the tuple count seen by the
// sink.
func RunPackedMessagePath(ctx context.Context, cluster *hyracks.Cluster, n int) (int64, error) {
	seen, _, err := RunMessagePathOver(ctx, cluster, n, hyracks.ExecOptions{})
	return seen, err
}

// RunMessagePathOver is RunPackedMessagePath with an explicit transport
// selection (the wire-path experiment runs it over loopback TCP); it
// additionally returns the bytes shipped over the partitioning
// connector.
func RunMessagePathOver(ctx context.Context, cluster *hyracks.Cluster, n int, opts hyracks.ExecOptions) (int64, int64, error) {
	payload := make([]byte, msgPathPayload)
	var seen int64
	perSender := n / msgPathSenders

	spec := &hyracks.JobSpec{Name: "msgpath"}
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "src",
		Partitions: msgPathSenders,
		NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
			part := tc.Partition
			return &hyracks.FuncSource{F: func(ctx context.Context, b *hyracks.BaseSource) error {
				var vid [8]byte
				for i := 0; i < perSender; i++ {
					binary.BigEndian.PutUint64(vid[:], uint64(part*perSender+i))
					if err := b.EmitFields(0, vid[:], payload); err != nil {
						return err
					}
				}
				return nil
			}}, nil
		},
	})
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "gb",
		Partitions: msgPathReceivers,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return operators.NewExternalSortRuntime(tc), nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{
		From: "src", To: "gb",
		Type:        hyracks.MToNPartitioning,
		Partitioner: hyracks.HashPartitioner(0),
	})
	sinkFrames := make([]*tuple.Frame, msgPathReceivers)
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "sink",
		Partitions: msgPathReceivers,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			// Packs the sorted stream into frames the way the msg-sink
			// run file does, minus the disk write.
			p := tc.Partition
			if sinkFrames[p] == nil {
				sinkFrames[p] = tuple.NewFrame()
			}
			out := sinkFrames[p]
			out.Reset()
			app := tuple.NewFrameAppender(out)
			var count int64
			return &hyracks.FuncRuntime{
				OnRef: func(_ *hyracks.BaseRuntime, r tuple.TupleRef) error {
					if !app.AppendRef(r) {
						out.Reset()
						app.AppendRef(r)
					}
					count++
					return nil
				},
				OnClose: func(_ *hyracks.BaseRuntime) error {
					atomic.AddInt64(&seen, count)
					return nil
				},
			}, nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{From: "gb", To: "sink", Type: hyracks.OneToOne})

	res, err := hyracks.RunJobWith(ctx, cluster, spec, opts)
	if err != nil {
		return 0, 0, err
	}
	var bytes int64
	for _, cs := range res.ConnStats {
		bytes += cs.Bytes()
	}
	return atomic.LoadInt64(&seen), bytes, nil
}

// RunFramePath benchmarks the packed message path and prints its
// allocations and nanoseconds per tuple.
func RunFramePath(ctx context.Context, o Options) error {
	o.defaults()
	dir := o.WorkDir
	if dir == "" {
		d, err := os.MkdirTemp("", "framepath")
		if err != nil {
			return err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	cluster, err := hyracks.NewCluster(dir, msgPathSenders, hyracks.NodeConfig{})
	if err != nil {
		return err
	}
	packed := benchPackedMessagePath(ctx, cluster)
	pa := float64(packed.AllocsPerOp()) / msgPathTuples
	pn := float64(packed.NsPerOp()) / msgPathTuples
	fmt.Fprintf(o.Out, "%-22s %14s %14s\n", "message path", "allocs/tuple", "ns/tuple")
	fmt.Fprintf(o.Out, "%-22s %14.3f %14.1f\n", "packed frames", pa, pn)
	o.Metrics.Record(RunMetric{System: "pregelix", Job: "msgpath-packed",
		AllocsPerTuple: pa, NsPerTuple: pn})
	return nil
}

// benchPackedMessagePath times RunPackedMessagePath at msgPathTuples
// tuples per operation.
func benchPackedMessagePath(ctx context.Context, cluster *hyracks.Cluster) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seen, err := RunPackedMessagePath(ctx, cluster, msgPathTuples)
			if err != nil {
				b.Fatal(err)
			}
			if seen != msgPathTuples {
				b.Fatalf("packed path saw %d tuples, want %d", seen, msgPathTuples)
			}
		}
	})
}
