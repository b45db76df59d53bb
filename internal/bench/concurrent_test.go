package bench

import (
	"context"
	"strings"
	"testing"
)

// TestConcJobsSmoke runs the admission-gate throughput experiment at tiny
// scale and checks both the printed table and the machine-readable
// metrics the bench CLI aggregates into BENCH_PR1.json.
func TestConcJobsSmoke(t *testing.T) {
	var buf strings.Builder
	o := tinyOptions(t, &buf)
	o.Metrics = &Metrics{}
	if err := RunConcJobs(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"jobs/hour", "avg queue", "peak running"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	runs := o.Metrics.Runs()
	if len(runs) != 4 {
		t.Fatalf("recorded %d rungs, want 4:\n%+v", len(runs), runs)
	}
	for _, r := range runs {
		if r.System != "pregelix-jobmanager" || r.Failed {
			t.Fatalf("bad run metric %+v", r)
		}
		if r.JobsPerHour <= 0 || r.WallSeconds <= 0 || r.Supersteps <= 0 {
			t.Fatalf("empty throughput metric %+v", r)
		}
	}
	if _, ok := Find("conc-jobs"); !ok {
		t.Fatal("conc-jobs missing from the experiment registry")
	}
}

// TestMetricsRecordedByGridRuns checks the figure runners feed the
// collector (wall time, supersteps, I/O bytes) for the JSON report.
func TestMetricsRecordedByGridRuns(t *testing.T) {
	var buf strings.Builder
	o := tinyOptions(t, &buf)
	o.Metrics = &Metrics{}
	if err := RunFig14(context.Background(), o, SSSP); err != nil {
		t.Fatal(err)
	}
	runs := o.Metrics.Runs()
	if len(runs) != 2 { // one LOJ + one FOJ run at the single tiny ratio
		t.Fatalf("recorded %d runs, want 2: %+v", len(runs), runs)
	}
	for _, r := range runs {
		if r.System != "pregelix" || r.Supersteps == 0 || r.WallSeconds <= 0 {
			t.Fatalf("bad metric %+v", r)
		}
	}
}
