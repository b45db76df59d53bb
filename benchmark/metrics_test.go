package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The limits are the benchmark contract's; a file outside them is
// refused before a single run.
func TestManifestWithinContractLimits(t *testing.T) {
	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the contract's pattern", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		check(e.Name)
		if !unitRE.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("%s: unit %q better %q", e.Name, e.Unit, e.Better)
		}
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !setup {
		t.Errorf("end_to_end must hold setup_s in s, lower is better")
	}
	for _, p := range m.PerLayer {
		check(p.Name)
		if !unitRE.MatchString(p.Unit) || (p.Better != "lower" && p.Better != "higher") {
			t.Errorf("%s: unit %q better %q", p.Name, p.Unit, p.Better)
		}
		if p.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", p.Name)
		}
	}
	data, err := json.Marshal(m)
	if err != nil || len(data) > 64<<10 {
		t.Errorf("manifest is %d bytes (err %v)", len(data), err)
	}
}

// BENCHMARK.json is generated (`manifest`), never edited: it must say
// what the catalogue says.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, _ := json.Marshal(buildManifest())
	if err := json.Unmarshal(gen, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with `bash benchmark/run.sh manifest > BENCHMARK.json`")
	}
}

func TestEveryWorkloadIsDescribed(t *testing.T) {
	for _, w := range workloadNames {
		if workloadWhy[w] == "" {
			t.Errorf("workload %s has no why", w)
		}
	}
	for _, d := range catalogue {
		for _, w := range d.On {
			if workloadWhy[w] == "" {
				t.Errorf("metric %s applies to unknown workload %q", d.Name, w)
			}
		}
	}
}

// contractKeys parses the driver-facing line and returns its metric
// names, failing on any key the contract does not list.
func contractKeys(t *testing.T, line []byte) map[string]contractMetric {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	want := []string{"attempted", "correct", "failed", "metrics"}
	if len(top) != len(want) {
		t.Fatalf("result line has keys %v, want exactly %v", top, want)
	}
	for _, k := range want {
		if _, ok := top[k]; !ok {
			t.Fatalf("result line lacks %q", k)
		}
	}
	var metrics map[string]contractMetric
	if err := json.Unmarshal(top["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	return metrics
}

func TestContractLineSchema(t *testing.T) {
	// Untraced: exactly the end-to-end metrics.
	r := newResult(wPRFit, 1, false)
	r.Attempted = 3
	for _, d := range catalogue {
		if d.EndToEnd {
			r.set(d.Name, single(1.5))
		}
	}
	r.set("load_s", single(0.1)) // reported, but not part of the untraced line
	line, err := r.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	got := contractKeys(t, line)
	for _, d := range catalogue {
		m, ok := got[d.Name]
		if ok != d.EndToEnd {
			t.Errorf("untraced line: metric %s present=%v, end-to-end=%v", d.Name, ok, d.EndToEnd)
		}
		if ok && (m.Unit != d.Unit || m.Value != 1.5) {
			t.Errorf("untraced line: %s = %+v", d.Name, m)
		}
	}
	if !strings.Contains(string(line), `"correct":true`) {
		t.Errorf("a run without failures must be correct: %s", line)
	}

	// A missing end-to-end metric is an error, not a silent gap.
	delete(r.Metrics, "job_s")
	if _, err := r.contractLine(); err == nil {
		t.Errorf("contractLine accepted a result without job_s")
	}

	// Traced: every per-layer metric, -1 where it does not apply.
	tr := newResult(wPRFit, 1, true)
	tr.Attempted, tr.Failed = 2, 1
	for _, d := range catalogue {
		if !d.EndToEnd && d.appliesTo(wPRFit) {
			tr.set(d.Name, single(2))
		}
	}
	line, err = tr.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	got = contractKeys(t, line)
	for _, d := range catalogue {
		m, ok := got[d.Name]
		switch {
		case d.EndToEnd && ok:
			t.Errorf("traced line holds end-to-end metric %s", d.Name)
		case !d.EndToEnd && !ok:
			t.Errorf("traced line lacks %s", d.Name)
		case !d.EndToEnd && !d.appliesTo(wPRFit) && m.Value != notApplicable:
			t.Errorf("%s does not apply to pr_fit but reads %v", d.Name, m.Value)
		}
	}
	if got["wire.rpc_rtt_us"].Value != notApplicable {
		t.Errorf("wire drives must not be reported for pr_fit")
	}
	if !strings.Contains(string(line), `"correct":false`) {
		t.Errorf("a failed operation must make the run incorrect: %s", line)
	}
}

// The pace scales what the clock measured, by unit: times down, rates
// up, and nothing else.
func TestApplyPaceScalesTimesAndRates(t *testing.T) {
	r := newResult(wPRFit, 1, false)
	r.set("job_s", summary{Value: 3, N: 4, Q1: 2.7, Q3: 3.3})
	r.set("superstep_ms_p50", single(300))
	r.set("mmsgs_per_s", single(0.1))
	r.set("io_mb", single(98.5))
	r.set("peak_rss_mb", single(80))
	r.set("core.msgs_total", single(268317))
	r.applyPace(summary{Value: 1.5, N: 7, Q1: 1.4, Q3: 1.6})
	for name, want := range map[string]float64{
		"job_s": 2, "superstep_ms_p50": 200, "mmsgs_per_s": 0.15,
		"io_mb": 98.5, "peak_rss_mb": 80, "core.msgs_total": 268317, "yardstick.pace": 1.5,
	} {
		if got, _ := r.value(name); !near(got, want) {
			t.Errorf("%s = %v after a pace of 1.5, want %v", name, got, want)
		}
	}
	if s := r.Metrics["job_s"]; !near(s.Q1, 1.8) || !near(s.Q3, 2.2) || s.N != 4 {
		t.Errorf("job_s quartiles = %+v, want them scaled with the median", s)
	}
	// No unit outside these is a time or a rate.
	for _, d := range catalogue {
		switch d.Unit {
		case "s", "ms", "us", "ns", "1/s", "Mmsg/s", "MB/s", "MB", "count", "ratio", "share":
		default:
			t.Errorf("metric %s has unit %q, which applyPace does not know", d.Name, d.Unit)
		}
	}
}

// The child answers every request with the seconds one pass took; with
// no child the pace is 1.
func TestYardstickChildSamples(t *testing.T) {
	var none *yardstick
	if err := none.sample(); err != nil || none.pace().Value != 1 || none.close() != nil {
		t.Errorf("a nil yardstick must be a no-op with pace 1")
	}
	y, err := startYardstick(0.05)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := y.sample(); err != nil {
			t.Fatal(err)
		}
	}
	if err := y.close(); err != nil {
		t.Errorf("child did not end cleanly: %v", err)
	}
	if p := y.pace(); p.N != 3 || p.Value <= 0 {
		t.Errorf("pace = %+v", p)
	}
}

func TestSetRejectsUnknownAndMisappliedMetrics(t *testing.T) {
	for name, fn := range map[string]func(){
		"unknown":    func() { newResult(wPRFit, 1, false).set("no.such_metric", single(1)) },
		"misapplied": func() { newResult(wPRFit, 1, false).set("query_p50_us", single(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s metric was accepted", name)
				}
			}()
			fn()
		}()
	}
}

// An empty sample or a zero duration must not reach the result line as
// NaN or Inf (JSON cannot carry them): the metric stays unreported and
// the run counts a failure.
func TestSetRejectsNonFiniteValues(t *testing.T) {
	for name, v := range map[string]summary{
		"empty sample":  summarize(nil),
		"zero duration": single(mbPerS(1<<20, 0)),
	} {
		r := newResult(wPRFit, 1, false)
		r.set("job_s", v)
		if _, ok := r.value("job_s"); ok || r.Failed != 1 {
			t.Errorf("%s: stored=%v failed=%d, want an unreported metric and one failure", name, ok, r.Failed)
		}
		if _, err := marshalFull(r); err != nil {
			t.Errorf("%s: result does not encode: %v", name, err)
		}
		if _, err := r.contractLine(); err == nil {
			t.Errorf("%s: the result line went out without job_s", name)
		}
	}
}
