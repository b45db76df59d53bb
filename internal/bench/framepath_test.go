package bench

import (
	"context"
	"testing"

	"pregelix/internal/hyracks"
)

// maxMsgPathAllocsPerTuple bounds the packed message path: it measures
// ~0.003 allocations per tuple (the seed's boxed pipeline measured ~3.0,
// BENCH_PR2.json), so the bound trips on a per-tuple allocation creeping
// back in, not on noise.
const maxMsgPathAllocsPerTuple = 0.05

// TestMessagePathAllocRatio enforces the packed-frame acceptance
// criterion as an absolute bound on allocations per tuple.
func TestMessagePathAllocRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark under -short")
	}
	cluster, err := hyracks.NewCluster(t.TempDir(), msgPathSenders, hyracks.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	packed := benchPackedMessagePath(context.Background(), cluster)
	perTuple := float64(packed.AllocsPerOp()) / msgPathTuples
	t.Logf("packed message path: %d allocs/op, %.4f per tuple", packed.AllocsPerOp(), perTuple)
	if perTuple > maxMsgPathAllocsPerTuple {
		t.Fatalf("packed message path allocates %.4f per tuple, bound is %.2f", perTuple, maxMsgPathAllocsPerTuple)
	}
}
