package bench

import (
	"context"
	"strings"
	"testing"
)

// tinyOptions keeps harness smoke tests fast.
func tinyOptions(t *testing.T, buf *strings.Builder) Options {
	return Options{
		Nodes:              2,
		RAMPerNode:         256 << 10,
		Ratios:             []float64{0.08},
		PageRankIterations: 2,
		Out:                buf,
		WorkDir:            t.TempDir(),
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"table3", "table4",
		"fig10a", "fig10b", "fig10c",
		"fig12a", "fig12b", "fig12c",
		"fig13",
		"fig14a", "fig14b", "fig14c",
		"fig15", "sec76",
		"ablate-gb", "ablate-conn",
		"compress",
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if _, ok := Find("nonsense"); ok {
		t.Fatal("bogus id found")
	}
}

func TestDatasetTables(t *testing.T) {
	var buf strings.Builder
	o := tinyOptions(t, &buf)
	if err := RunTable3(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if err := RunTable4(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"Tiny", "X-Small", "Small", "Medium", "Large"} {
		if !strings.Contains(out, name) {
			t.Fatalf("tables missing %s row:\n%s", name, out)
		}
	}
}

func TestFig10SmokeAllSystems(t *testing.T) {
	var buf strings.Builder
	o := tinyOptions(t, &buf)
	if err := RunFig10(context.Background(), o, PageRank); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, sys := range []string{"pregelix", "giraph-mem", "giraph-ooc", "graphlab", "graphx", "hama"} {
		if !strings.Contains(out, sys) {
			t.Fatalf("fig10 output missing %s:\n%s", sys, out)
		}
	}
	if !strings.Contains(out, "Figure 11") {
		t.Fatal("fig10 runner must also print the Figure 11 grid")
	}
	// Pregelix must not FAIL at this small ratio.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "0.") && strings.Contains(line, "FAIL") {
			fields := strings.Fields(line)
			if len(fields) > 1 && fields[1] == "FAIL" {
				t.Fatalf("pregelix failed at tiny ratio:\n%s", out)
			}
		}
	}
}

func TestFig14Smoke(t *testing.T) {
	var buf strings.Builder
	o := tinyOptions(t, &buf)
	if err := RunFig14(context.Background(), o, SSSP); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "left-outer") || !strings.Contains(out, "full-outer") {
		t.Fatalf("fig14 output:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("pregelix plans must not fail:\n%s", out)
	}
}

func TestSec76CountsLines(t *testing.T) {
	counts, err := CountLines()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	byModule := map[string]int{}
	for _, c := range counts {
		byModule[c.Module] = c.Lines
		total += c.Lines
	}
	if total < 5000 {
		t.Fatalf("implausibly low total LoC: %d", total)
	}
	if byModule["internal/core (pregelix)"] == 0 || byModule["internal/hyracks (engine)"] == 0 ||
		byModule["cmd/pregelix (serving tier)"] == 0 {
		t.Fatalf("missing module counts: %v", byModule)
	}
}

func TestBuildDatasetHitsRatio(t *testing.T) {
	o := Options{Nodes: 4, RAMPerNode: 1 << 20}
	o.defaults()
	for _, want := range []float64{0.05, 0.2, 0.5} {
		_, got := o.buildDataset(WebmapData, want, 1)
		if got < want*0.5 || got > want*2.0 {
			t.Fatalf("ratio %f produced %f", want, got)
		}
	}
}
