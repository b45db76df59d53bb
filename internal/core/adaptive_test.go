package core

import (
	"testing"
	"time"
)

// Split-candidate boundaries: the heaviest partition is proposed only
// when it exceeds SplitSkewFactor× the mean partition load, carries at
// least SplitMinLoad, and the split budget remains.
func TestAdaptiveSplitCandidate(t *testing.T) {
	base := AdaptiveOptions{Enabled: true, SplitSkewFactor: 2.0, SplitMinLoad: 100, SplitFactor: 4, MaxSplits: 2}
	observe := func(adv *adaptiveAdvisor, load map[int]int64, numSplits int) (SplitDecision, bool) {
		t.Helper()
		adv.Observe(RuntimeObservation{
			Stat: SuperstepStat{Superstep: 2}, PartLoad: load,
			BaseParts: 4, TotalParts: 4, NumSplits: numSplits,
		})
		return adv.SplitCandidate()
	}

	// 4000 vs mean 1750: above 2×? 4000 > 3500 → split partition 2.
	d, ok := observe(newAdaptiveAdvisor(base), map[int]int64{0: 1000, 1: 1000, 2: 4000, 3: 1000}, 0)
	if !ok || d.Parent != 2 || d.Children != 4 {
		t.Fatalf("skewed load: got %+v ok=%v, want parent 2, 4 children", d, ok)
	}
	// 3000 vs mean 1500: exactly 2× is not strictly above → no split.
	if d, ok := observe(newAdaptiveAdvisor(base), map[int]int64{0: 1000, 1: 1000, 2: 3000, 3: 1000}, 0); ok {
		t.Fatalf("at-threshold skew proposed a split: %+v", d)
	}
	// Heaviest partition below SplitMinLoad → no split.
	if d, ok := observe(newAdaptiveAdvisor(base), map[int]int64{0: 10, 1: 10, 2: 99, 3: 10}, 0); ok {
		t.Fatalf("tiny partition proposed a split: %+v", d)
	}
	// Split budget exhausted → no split.
	if d, ok := observe(newAdaptiveAdvisor(base), map[int]int64{0: 1000, 1: 1000, 2: 9000, 3: 1000}, 2); ok {
		t.Fatalf("over-budget split proposed: %+v", d)
	}
}

// Straggler detection needs StragglerPatience consecutive slow
// supersteps, and the relief cooldown keeps the detector from flapping.
func TestAdaptiveStragglerHysteresis(t *testing.T) {
	adv := newAdaptiveAdvisor(AdaptiveOptions{
		Enabled: true, StragglerRatio: 2.0, StragglerPatience: 2, ReliefCooldown: 4,
	})
	observe := func(ss int64, slow, fast time.Duration) (string, bool) {
		t.Helper()
		adv.Observe(RuntimeObservation{
			Stat: SuperstepStat{Superstep: ss},
			Workers: []WorkerPhase{
				{Addr: "w-slow", Duration: slow},
				{Addr: "w-fast", Duration: fast},
			},
		})
		return adv.Straggler()
	}

	// One slow superstep: patience not met.
	if addr, ok := observe(1, 100*time.Millisecond, 10*time.Millisecond); ok {
		t.Fatalf("flagged %q after one slow superstep", addr)
	}
	// Second consecutive slow superstep: flagged.
	addr, ok := observe(2, 100*time.Millisecond, 10*time.Millisecond)
	if !ok || addr != "w-slow" {
		t.Fatalf("got %q ok=%v, want w-slow flagged", addr, ok)
	}
	// Still slow, but inside the cooldown (and the streak was reset):
	// no flag for the next ReliefCooldown supersteps.
	for ss := int64(3); ss < 6; ss++ {
		if addr, ok := observe(ss, 100*time.Millisecond, 10*time.Millisecond); ok {
			t.Fatalf("flagged %q at superstep %d inside the cooldown", addr, ss)
		}
	}
	// Cooldown over and patience re-met → flagged again.
	if addr, ok := observe(6, 100*time.Millisecond, 10*time.Millisecond); !ok || addr != "w-slow" {
		t.Fatalf("got %q ok=%v after cooldown, want w-slow", addr, ok)
	}
	// A recovered worker's streak dies immediately: fast superstep then
	// slow ones must re-earn the full patience.
	observe(11, 10*time.Millisecond, 10*time.Millisecond)
	if addr, ok := observe(12, 100*time.Millisecond, 10*time.Millisecond); ok {
		t.Fatalf("flagged %q without re-earning patience", addr)
	}
}

// Reset clears streaks and pending decisions (the recovery-rollback
// path: re-executed supersteps must not replay pre-failure history).
func TestAdaptiveReset(t *testing.T) {
	adv := newAdaptiveAdvisor(AdaptiveOptions{Enabled: true, StragglerPatience: 2, SplitMinLoad: 1})
	for ss := int64(1); ss <= 2; ss++ {
		adv.Observe(RuntimeObservation{
			Stat:     SuperstepStat{Superstep: ss},
			PartLoad: map[int]int64{0: 1000, 1: 1, 2: 1, 3: 1}, TotalParts: 4, BaseParts: 4,
			Workers: []WorkerPhase{
				{Addr: "w-slow", Duration: time.Second},
				{Addr: "w-fast", Duration: time.Millisecond},
			},
		})
	}
	if _, ok := adv.SplitCandidate(); !ok {
		t.Fatal("expected a pending split before Reset")
	}
	adv.Reset()
	if _, ok := adv.SplitCandidate(); ok {
		t.Fatal("pending split survived Reset")
	}
	if _, ok := adv.Straggler(); ok {
		t.Fatal("pending straggler survived Reset")
	}
	if len(adv.streak) != 0 {
		t.Fatalf("streaks survived Reset: %v", adv.streak)
	}
}
