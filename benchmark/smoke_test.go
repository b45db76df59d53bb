package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pregelix/internal/core"
)

// The test binary doubles as the yardstick's child process:
// startYardstick re-executes os.Executable() with "yardstick".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "yardstick" {
		os.Exit(cmdYardstick(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// smokeConfig is a workload at a twentieth of its size: seconds, not
// minutes, and every code path of the full run.
func smokeConfig(t *testing.T, workload string, traced bool) *runConfig {
	dir := t.TempDir()
	cfg := &runConfig{
		Workload: workload, Seed: 7, Seconds: 0, Traced: traced,
		Scale: 0.05, ScratchRoot: filepath.Join(dir, "scratch"),
	}
	if traced {
		cfg.TraceOut = filepath.Join(dir, workload+".trace.json")
	}
	return cfg
}

func TestSmokeAllWorkloadsTimed(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := smokeConfig(t, w, false)
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if pace := res.Metrics["yardstick.pace"]; pace.N < 3 || pace.Value <= 0 {
				t.Errorf("yardstick.pace = %+v, want a median of at least 3 samples", pace)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Problems)
			}
			if fs, _ := res.value("fail_share"); fs != 0 {
				t.Errorf("fail_share = %v", fs)
			}
			line, err := res.contractLine()
			if err != nil {
				t.Fatal(err)
			}
			for name, m := range contractKeys(t, line) {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; they must never be 0", name, m.Value)
				}
			}
			if left, _ := os.ReadDir(cfg.ScratchRoot); len(left) != 0 {
				t.Errorf("scratch dir not removed: %v", left)
			}
		})
	}
}

func TestSmokeAllWorkloadsTraced(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := smokeConfig(t, w, true)
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Fatalf("failed %d: %v", res.Failed, res.Problems)
			}
			// Every per-layer metric that applies is reported.
			if _, err := res.contractLine(); err != nil {
				t.Error(err)
			}
			// The est_share set and the unattributed share sum to 1.
			sum := 0.0
			for name, m := range res.Metrics {
				if strings.HasSuffix(name, ".est_share") || name == "core.unattributed_share" {
					sum += m.Value
				}
			}
			if !near(sum, 1) {
				t.Errorf("shares sum to %v, want 1", sum)
			}
			if _, ok := res.value("trace.overhead_ratio"); !ok {
				t.Errorf("trace.overhead_ratio not reported")
			}
			_, wire := res.value("wire.rpc_rtt_us")
			if cluster := w == wPRCluster || w == wServeMix; wire != cluster {
				t.Errorf("wire drives reported = %v on %s", wire, w)
			}

			// The Chrome trace loads and nests workload -> job/drive -> call.
			data, err := os.ReadFile(cfg.TraceOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string `json:"name"`
					Args struct {
						ID, Parent int
					} `json:"args"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("trace does not load: %v", err)
			}
			names := map[int]string{}
			for _, e := range doc.TraceEvents {
				names[e.Args.ID] = e.Name
			}
			var calls, phases int
			for _, e := range doc.TraceEvents {
				parent := names[e.Args.Parent]
				if strings.HasPrefix(parent, "drive:") {
					calls++
				}
				if strings.HasPrefix(e.Name, "superstep ") && (strings.HasPrefix(parent, "job:") || strings.HasPrefix(parent, "DeltaRefresh")) {
					phases++
				}
			}
			if calls == 0 || phases == 0 {
				t.Errorf("trace has %d drive calls and %d superstep phases", calls, phases)
			}
		})
	}
}

// The workloads separate the layers as designed: nothing evicts when
// the data fits, pages evict when it does not.
func TestSpillWorkloadEvictsAndFitDoesNot(t *testing.T) {
	// pr_spill's memory pressure does not survive scaling the graph down
	// while node RAM stays put, so this runs the storage claim at a size
	// where 2 x 1 MiB is still short: a fifth.
	if testing.Short() {
		t.Skip("runs PageRank on 12k vertices")
	}
	evictions := map[string]float64{}
	for _, w := range []string{wPRFit, wPRSpill} {
		cfg := smokeConfig(t, w, false)
		cfg.Scale = 0.2
		res, err := runWorkload(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Fatalf("%s failed: %v", w, res.Problems)
		}
		evictions[w], _ = res.value("storage.cache_evictions")
	}
	if evictions[wPRFit] != 0 || evictions[wPRSpill] <= 0 {
		t.Errorf("cache evictions: pr_fit %v (want 0), pr_spill %v (want > 0)", evictions[wPRFit], evictions[wPRSpill])
	}
}

// Corrupting one expected value must show as a failed operation.
func TestCorruptExpectationFails(t *testing.T) {
	cfg := smokeConfig(t, wSSSPChain, false)
	spec := batchSpecs[wSSSPChain]
	g := spec.graph(cfg)
	orc, err := runOracle(spec.job("oracle", ""), g)
	if err != nil {
		t.Fatal(err)
	}
	// A dump that agrees with the oracle on every vertex.
	ids := make([]uint64, 0, len(orc.values))
	for id := range orc.values {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&out, "%d\t%s\t\n", id, orc.values[id])
	}
	run := jobRun{out: []byte(out.String())}

	good := &batchRun{cfg: cfg, spec: spec, res: newResult(wSSSPChain, 7, false), runs: []jobRun{run}}
	good.verify(orc)
	if good.res.Failed != 0 {
		t.Fatalf("a matching dump failed: %v", good.res.Problems)
	}

	orc.values[ids[len(ids)/2]] = "12345"
	bad := &batchRun{cfg: cfg, spec: spec, res: newResult(wSSSPChain, 7, false), runs: []jobRun{run}}
	bad.res.Attempted = 1
	bad.verify(orc)
	if bad.res.Failed != 1 {
		t.Fatalf("a corrupted expectation went unnoticed (failed = %d)", bad.res.Failed)
	}
	line, err := func() ([]byte, error) {
		for _, d := range catalogue {
			if d.EndToEnd {
				bad.res.set(d.Name, single(1))
			}
		}
		return bad.res.contractLine()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"correct":false`) || !strings.Contains(string(line), `"failed":1`) {
		t.Errorf("result line hides the failure: %s", line)
	}
}

// PageRank values may differ from the oracle in the last ulps, nothing
// more; SSSP not at all.
func TestCompareValuesTolerance(t *testing.T) {
	want := map[uint64]string{1: "0.5", 2: "3"}
	if err := compareValues(map[uint64]string{1: "0.50000000001", 2: "3"}, want, tolPageRank); err != nil {
		t.Errorf("last-ulp jitter rejected: %v", err)
	}
	if err := compareValues(map[uint64]string{1: "0.501", 2: "3"}, want, tolPageRank); err == nil {
		t.Errorf("a 0.2%% error passed the PageRank tolerance")
	}
	if err := compareValues(map[uint64]string{1: "0.50000000001", 2: "3"}, want, tolExact); err == nil {
		t.Errorf("exact comparison accepted a differing value")
	}
	if err := compareValues(map[uint64]string{1: "0.5"}, want, tolPageRank); err == nil {
		t.Errorf("a missing vertex passed")
	}
}

// A refused read is recognised whether the coordinator refused it (a
// wrapped core.ErrNoResult) or a worker did (wire's Caller rebuilds the
// error from its text); nothing else is.
func TestIsNoResultMatchesBothForms(t *testing.T) {
	local := fmt.Errorf("%w: dpr@j1", core.ErrNoResult)
	remote := errors.New(local.Error())
	if !isNoResult(local) || !isNoResult(remote) {
		t.Errorf("isNoResult: local %v, remote %v; want both true", isNoResult(local), isNoResult(remote))
	}
	if isNoResult(errors.New("wire: control connection lost")) {
		t.Errorf("isNoResult accepted an unrelated error")
	}
}

// Jobs the hypervisor disturbed are left out of the timings while three
// undisturbed ones remain; with fewer, every job is timed.
func TestTimedLeavesOutDisturbedJobs(t *testing.T) {
	calm, stolen := jobRun{stolen: 0.01}, jobRun{stolen: 0.2}
	b := &batchRun{runs: []jobRun{calm, stolen, calm, stolen, calm}}
	if got := len(b.timed()); got != 3 {
		t.Errorf("3 calm jobs of 5: %d timed, want 3", got)
	}
	b.runs = []jobRun{calm, stolen, stolen, calm}
	if got := len(b.timed()); got != 4 {
		t.Errorf("2 calm jobs of 4: %d timed, want all 4", got)
	}
	if steal, total := cpuStolen(); steal < 0 || total < 0 || steal > total {
		t.Errorf("cpuStolen() = %d, %d", steal, total)
	}
}

// Phase A's time is its median round's, over the rounds the hypervisor
// let be, times the number of rounds.
func TestPhaseAWallIsMedianRoundTimesRounds(t *testing.T) {
	round := func(ms int, stolen float64) jobRun {
		return jobRun{wall: time.Duration(ms) * time.Millisecond, stolen: stolen}
	}
	a := phaseAStats{rounds: []jobRun{round(400, 0), round(900, 0.3), round(420, 0.01), round(440, 0), round(2000, 0.2)}}
	if got := a.roundS(); !near(got, 0.42) {
		t.Errorf("roundS() = %v, want the calm rounds' median 0.42", got)
	}
	if got := a.wallS(); !near(got, 5*0.42) {
		t.Errorf("wallS() = %v, want 5 rounds at 0.42 s", got)
	}
}
