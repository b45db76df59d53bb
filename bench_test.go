package pregelix

// One benchmark per table/figure of the paper's evaluation (Section 7),
// each printing rows shaped like the corresponding artifact, plus
// micro-benchmarks of the substrate components. The figure benchmarks
// use a scaled-down grid so `go test -bench=.` completes in minutes;
// cmd/pregelix-bench runs fuller grids.

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"pregelix/internal/bench"
	"pregelix/internal/hyracks"
	"pregelix/internal/memory"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
)

// benchOptions is the scaled-down experiment grid for `go test -bench`.
func benchOptions(b *testing.B) bench.Options {
	return bench.Options{
		Nodes:              4,
		RAMPerNode:         512 << 10,
		Ratios:             []float64{0.05, 0.15, 0.30},
		PageRankIterations: 4,
		Out:                benchWriter{b},
		WorkDir:            b.TempDir(),
	}
}

type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Logf("%s", p)
	return len(p), nil
}

func runExperiment(b *testing.B, id string) {
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(context.Background(), benchOptions(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3WebmapDatasets(b *testing.B)  { runExperiment(b, "table3") }
func BenchmarkTable4BTCDatasets(b *testing.B)     { runExperiment(b, "table4") }
func BenchmarkFig10aPageRankOverall(b *testing.B) { runExperiment(b, "fig10a") }
func BenchmarkFig10bSSSPOverall(b *testing.B)     { runExperiment(b, "fig10b") }
func BenchmarkFig10cCCOverall(b *testing.B)       { runExperiment(b, "fig10c") }

// Figure 11 shares runs with Figure 10 (the harness prints both the
// overall and the average-iteration grids); these aliases regenerate
// the iteration-time panels by id.
func BenchmarkFig11aPageRankIteration(b *testing.B) { runExperiment(b, "fig10a") }
func BenchmarkFig11bSSSPIteration(b *testing.B)     { runExperiment(b, "fig10b") }
func BenchmarkFig11cCCIteration(b *testing.B)       { runExperiment(b, "fig10c") }

func BenchmarkFig12aPregelixSpeedup(b *testing.B) { runExperiment(b, "fig12a") }
func BenchmarkFig12bSpeedupXSmall(b *testing.B)   { runExperiment(b, "fig12b") }
func BenchmarkFig12cPregelixScaleup(b *testing.B) { runExperiment(b, "fig12c") }

func BenchmarkFig13Throughput(b *testing.B) { runExperiment(b, "fig13") }

func BenchmarkFig14aJoinSSSP(b *testing.B)     { runExperiment(b, "fig14a") }
func BenchmarkFig14bJoinPageRank(b *testing.B) { runExperiment(b, "fig14b") }
func BenchmarkFig14cJoinCC(b *testing.B)       { runExperiment(b, "fig14c") }

func BenchmarkFig15LOJVsOthers(b *testing.B) { runExperiment(b, "fig15") }

func BenchmarkSec76LinesOfCode(b *testing.B) { runExperiment(b, "sec76") }

func BenchmarkAblationGroupBy(b *testing.B)   { runExperiment(b, "ablate-gb") }
func BenchmarkAblationConnector(b *testing.B) { runExperiment(b, "ablate-conn") }

// ---- substrate micro-benchmarks ----

func BenchmarkBTreeInsert(b *testing.B) {
	bc := storage.NewBufferCache(8192, memory.NewBudget("b", 8<<20))
	bt, err := storage.CreateBTree(bc, filepath.Join(b.TempDir(), "b.btree"))
	if err != nil {
		b.Fatal(err)
	}
	defer bt.Close()
	val := make([]byte, 64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bt.Insert(tuple.EncodeUint64(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeSearch(b *testing.B) {
	bc := storage.NewBufferCache(8192, memory.NewBudget("b", 32<<20))
	bt, err := storage.CreateBTree(bc, filepath.Join(b.TempDir(), "b.btree"))
	if err != nil {
		b.Fatal(err)
	}
	defer bt.Close()
	loader, _ := bt.NewBulkLoader(0.9)
	const n = 100_000
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		if err := loader.Add(tuple.EncodeUint64(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := loader.Finish(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bt.Search(tuple.EncodeUint64(uint64(rng.Intn(n)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeScan(b *testing.B) {
	bc := storage.NewBufferCache(8192, memory.NewBudget("b", 32<<20))
	bt, err := storage.CreateBTree(bc, filepath.Join(b.TempDir(), "b.btree"))
	if err != nil {
		b.Fatal(err)
	}
	defer bt.Close()
	loader, _ := bt.NewBulkLoader(0.9)
	const n = 100_000
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		if err := loader.Add(tuple.EncodeUint64(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := loader.Finish(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := bt.ScanFrom(nil)
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		for {
			_, _, ok := c.Next()
			if !ok {
				break
			}
			count++
		}
		c.Close()
		if count != n {
			b.Fatalf("scan %d", count)
		}
	}
}

func BenchmarkLSMInsert(b *testing.B) {
	bc := storage.NewBufferCache(8192, memory.NewBudget("b", 32<<20))
	l, err := storage.CreateLSMBTree(bc, b.TempDir(), storage.LSMOptions{MemLimit: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	val := make([]byte, 64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Insert(tuple.EncodeUint64(uint64(i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTupleRoundTrip(b *testing.B) {
	rf, err := storage.CreateRunFile(filepath.Join(b.TempDir(), "r.run"))
	if err != nil {
		b.Fatal(err)
	}
	t := tuple.Tuple{tuple.EncodeUint64(7), make([]byte, 48)}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := rf.Append(t); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rf.Delete()
}

// BenchmarkFrameAppend measures the packed-frame write path: packing
// (vid, payload) tuples into a frame buffer in place.
func BenchmarkFrameAppend(b *testing.B) {
	f := tuple.NewFrame()
	app := tuple.NewFrameAppender(f)
	k := tuple.EncodeUint64(42)
	v := make([]byte, 16)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !app.Append(k, v) {
			f.Reset()
			app.Append(k, v)
		}
	}
}

// BenchmarkMessagePath drives the packed message hot path through a real
// dataflow job: source -> m-to-n hash partitioning -> sort group-by ->
// frame-packing sink. allocs/op at N=100k tuples per op is the PR2
// acceptance metric (bounded by internal/bench's TestMessagePathAllocRatio).
func BenchmarkMessagePath(b *testing.B) {
	cluster, err := hyracks.NewCluster(b.TempDir(), 4, hyracks.NodeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunPackedMessagePath(ctx, cluster, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashPartitioner(b *testing.B) {
	p := hyracks.HashPartitioner(0)
	f := tuple.NewFrame()
	tuple.NewFrameAppender(f).Append(tuple.EncodeUint64(123456789))
	r := f.Tuple(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p(r, 32)
	}
}

func BenchmarkAblationPipelining(b *testing.B) { runExperiment(b, "ablate-pipe") }
