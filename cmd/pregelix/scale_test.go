package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"pregelix/internal/core"
)

// The in-process cluster setup (startTestCluster) and the HTTP helpers
// live in harness_test.go, shared with the process-level e2e tests.

// TestScaleEndpoint covers the elasticity API surface: GET /scale
// reports the live worker→nodes topology; an elastic worker joining is
// absorbed and reported as a scale-out event in both /scale and /stats;
// POST /scale drains a worker; and the refusal paths (unknown worker,
// last worker, bad body) answer with clean HTTP errors.
func TestScaleEndpoint(t *testing.T) {
	ts, coord := startTestCluster(t, 2, nil)

	var sv scaleView
	getJSON(t, ts.URL+"/scale", &sv)
	if len(sv.Workers) != 2 {
		t.Fatalf("topology: %+v", sv.Workers)
	}
	for _, w := range sv.Workers {
		if len(w.Nodes) != 2 || w.Draining {
			t.Fatalf("unexpected worker view: %+v", w)
		}
	}

	// Scale out: no API call, just another worker with Elastic set.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	dir := t.TempDir()
	go func() {
		core.RunWorker(ctx, core.WorkerConfig{
			CCAddr:   coord.Addr(),
			BaseDir:  dir,
			Nodes:    2,
			BuildJob: buildJobFromSpec,
			Elastic:  true,
		})
	}()
	deadline := time.Now().Add(15 * time.Second)
	for coord.Workers() != 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if coord.Workers() != 3 {
		t.Fatalf("elastic worker never absorbed: %d workers", coord.Workers())
	}
	getJSON(t, ts.URL+"/scale", &sv)
	if len(sv.Workers) != 3 {
		t.Fatalf("topology after scale-out: %+v", sv.Workers)
	}
	sawScaleOut := false
	for _, ev := range sv.Events {
		if ev.Kind == "scale-out" {
			sawScaleOut = true
		}
	}
	if !sawScaleOut {
		t.Fatalf("no scale-out event: %+v", sv.Events)
	}

	// The same event log rides /stats.
	stats := statsView{clusterStats: &clusterStats{}}
	getJSON(t, ts.URL+"/stats", &stats)
	if len(stats.Rebalance) == 0 {
		t.Fatalf("stats carry no rebalance events: %+v", stats)
	}

	// Refusals: bad body, missing drain field, unknown worker.
	for _, body := range []string{"{not json", "{}", `{"drain":"10.9.9.9:1"}`} {
		resp, err := http.Post(ts.URL+"/scale", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
			t.Fatalf("POST /scale %q accepted: %s", body, resp.Status)
		}
	}

	// Drain one worker through the API.
	getJSON(t, ts.URL+"/scale", &sv)
	victim := sv.Workers[len(sv.Workers)-1].Addr
	resp, err := http.Post(ts.URL+"/scale", "application/json",
		bytes.NewBufferString(fmt.Sprintf(`{"drain":%q}`, victim)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /scale drain: %s", resp.Status)
	}
	deadline = time.Now().Add(15 * time.Second)
	for coord.Workers() != 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if coord.Workers() != 2 {
		t.Fatalf("drained worker never left: %d workers", coord.Workers())
	}
}
