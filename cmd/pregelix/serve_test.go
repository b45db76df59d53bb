package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"pregelix/internal/core"
)

// The server starters (serveBackends, newTestServer, startTestCluster)
// and the HTTP helpers (doJSON, uploadGraph, waitJobState) live in
// harness_test.go. Cases only one engine has stay with that engine:
// /scale in scale_test.go, restart/resume in e2e_restart_test.go,
// max-concurrent overlap at the bottom of this file.

// longJob runs until it is canceled.
var longJob = jobRequest{Algorithm: "pagerank", Input: "/in/web", Iterations: 100000}

// request is one row of a status-code table.
type request struct {
	method, path string
	body         any
	want         int
}

func checkRequests(t *testing.T, base string, rows []request) {
	t.Helper()
	for _, r := range rows {
		doJSON(t, r.method, base+r.path, r.body, r.want, nil)
	}
}

// dumpValues parses a downloaded dump into vid -> value-string.
func dumpValues(t *testing.T, baseURL, path string) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(getFile(t, baseURL, path))), "\n") {
		fields := strings.SplitN(line, "\t", 3)
		if len(fields) < 2 {
			t.Fatalf("bad dump line %q", line)
		}
		vid, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			t.Fatalf("bad dump line %q: %v", line, err)
		}
		out[vid] = fields[1]
	}
	return out
}

// postMutations POSTs one NDJSON batch against a job and returns the
// response status code and assigned sequence (0 unless 202).
func postMutations(t *testing.T, baseURL string, id int64, ndjson string) (int, uint64) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/jobs/%d/mutations", baseURL, id),
		"application/x-ndjson", strings.NewReader(ndjson))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, 0
	}
	var out struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Seq
}

// waitRefreshed polls a job's status until the given journal sequence
// has been folded into the sealed version and no refresh is in flight.
func waitRefreshed(t *testing.T, baseURL string, id int64, seq uint64) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur := pollJob(t, baseURL, id)
		if cur.DeltaError != "" {
			t.Fatalf("delta refresh failed: %s", cur.DeltaError)
		}
		if cur.DeltaSeq >= seq && !cur.Refreshing {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never refreshed past seq %d: %+v", id, seq, cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeConformance runs one HTTP script against the server over
// each backend: whatever the engine, the routes, status codes and field
// names are the same.
func TestServeConformance(t *testing.T) {
	for _, be := range serveBackends {
		t.Run(be.name, func(t *testing.T) {
			// Each backend runs one job at a time here; conformQueued
			// more may wait behind it.
			var srv *server
			base := be.start(t, func(s *server) { srv, s.maxQueued = s, conformQueued })
			steps := []struct {
				name string
				run  func(t *testing.T, base string)
			}{
				{"validation", conformValidation},
				{"submit-poll-query", conformSubmitAndQuery},
				{"queue-and-cancel", func(t *testing.T, base string) { conformQueueAndCancel(t, base, srv) }},
				{"mutations", conformMutations},
			}
			doJSON(t, http.MethodGet, base+"/scale", nil, be.scaleCode, nil)
			for _, step := range steps {
				if !t.Run(step.name, func(t *testing.T) { step.run(t, base) }) {
					return
				}
			}
			// Every field both engines report, plus the engine's own.
			var stats map[string]json.RawMessage
			getJSON(t, base+"/stats", &stats)
			want := append([]string{"jobs", "manager", "network"}, be.statsKeys...)
			if len(stats) != len(want) {
				t.Fatalf("/stats has fields %v, want exactly %v", keysOf(stats), want)
			}
			for _, k := range want {
				if _, ok := stats[k]; !ok {
					t.Fatalf("/stats has fields %v, want exactly %v", keysOf(stats), want)
				}
			}
			// (encoding/json cannot allocate the unexported embedded sections.)
			view := statsView{localStats: &localStats{}, clusterStats: &clusterStats{}}
			getJSON(t, base+"/stats", &view)
			if view.Jobs.Total == 0 || view.Jobs.Done == 0 || view.Jobs.Canceled == 0 ||
				view.Jobs.Queued+view.Jobs.Running != 0 {
				t.Fatalf("job counts %+v", view.Jobs)
			}
			if view.Manager.TotalSupersteps == 0 || view.Manager.TotalMessages == 0 {
				t.Fatalf("table totals %+v", view.Manager)
			}
		})
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// conformValidation covers the error paths of an empty server.
func conformValidation(t *testing.T, base string) {
	checkRequests(t, base, []request{
		{http.MethodPost, "/jobs", jobRequest{Algorithm: "nope", Input: "/in/x"}, http.StatusBadRequest},
		{http.MethodPost, "/jobs", jobRequest{Algorithm: "pagerank"}, http.StatusBadRequest},
		{http.MethodPost, "/jobs", jobRequest{Algorithm: "pagerank", Input: "/in/x", Join: "sideways"}, http.StatusBadRequest},
		{http.MethodPost, "/jobs", jobRequest{Algorithm: "pagerank", Input: "/in/x", CheckpointEvery: -1}, http.StatusBadRequest},
		{http.MethodPost, "/jobs", jobRequest{Algorithm: "cc", Input: "/in/never"}, http.StatusBadRequest},
		{http.MethodPut, "/jobs", nil, http.StatusMethodNotAllowed},
		{http.MethodGet, "/jobs/999", nil, http.StatusNotFound},
		{http.MethodGet, "/jobs/abc", nil, http.StatusBadRequest},
		{http.MethodGet, "/jobs/999/vertices/1", nil, http.StatusNotFound},
		{http.MethodPost, "/jobs/999/mutations", nil, http.StatusNotFound},
		{http.MethodGet, "/files/no/such", nil, http.StatusNotFound},
		{http.MethodGet, "/files/", nil, http.StatusBadRequest},
		{http.MethodGet, "/healthz", nil, http.StatusOK},
	})
	// Rejected submissions must not leak into the table.
	var list []jobView
	getJSON(t, base+"/jobs", &list)
	if len(list) != 0 {
		t.Fatalf("rejected submissions leaked into the job list: %+v", list)
	}
}

// conformSubmitAndQuery uploads a graph, runs a job to completion and
// requires the point, top-k and k-hop reads of its sealed result to
// match its dumped output, with the documented error code on every bad
// input.
func conformSubmitAndQuery(t *testing.T, base string) {
	uploadGraph(t, base, "/in/web")
	var v jobView
	doJSON(t, http.MethodPost, base+"/jobs", jobRequest{
		Algorithm: "pagerank", Input: "/in/web", Output: "/out/pr", Iterations: 3,
	}, http.StatusAccepted, &v)
	if v.ID == 0 || v.State == "" || !strings.HasPrefix(v.Name, "pagerank@j") {
		t.Fatalf("submission view %+v", v)
	}
	done := waitJobState(t, base, v.ID, "done")
	if done.Supersteps != 3 || done.Vertices != 120 || done.Messages == 0 || done.Version != done.Name {
		t.Fatalf("done job view %+v", done)
	}
	var list []jobView
	getJSON(t, base+"/jobs", &list)
	if len(list) != 1 || list[0].ID != v.ID {
		t.Fatalf("job list %+v", list)
	}
	dump := dumpValues(t, base, "/out/pr")
	job := fmt.Sprintf("%s/jobs/%d", base, v.ID)

	// Point reads match the dump byte-for-byte.
	for _, vid := range []uint64{1, 2, 60, 119} {
		var vr core.VertexQueryResult
		getJSON(t, fmt.Sprintf("%s/vertices/%d", job, vid), &vr)
		if !vr.Found || vr.Value != dump[vid] {
			t.Fatalf("vertex %d: %+v, dump has %q", vid, vr, dump[vid])
		}
		if !strings.HasPrefix(vr.Line, fmt.Sprintf("%d\t%s", vid, dump[vid])) {
			t.Fatalf("vertex %d line %q does not match its dump row", vid, vr.Line)
		}
	}

	// Top-k: first entry is the dump's maximum value.
	var tk struct {
		K       int              `json:"k"`
		Entries []core.TopKEntry `json:"entries"`
	}
	getJSON(t, job+"/topk?by=value&k=5", &tk)
	if tk.K != 5 || len(tk.Entries) != 5 {
		t.Fatalf("top-k payload %+v", tk)
	}
	var maxVid uint64
	maxScore := -1.0
	for vid, val := range dump {
		s, _ := strconv.ParseFloat(val, 64)
		if s > maxScore || (s == maxScore && vid < maxVid) {
			maxScore, maxVid = s, vid
		}
	}
	if tk.Entries[0].Vid != maxVid {
		t.Fatalf("top-k[0] is vertex %d, dump maximum is %d", tk.Entries[0].Vid, maxVid)
	}

	// K-hop expansion from a real vertex.
	var kh core.KHopResult
	getJSON(t, job+"/neighbors/1?hops=2", &kh)
	if !kh.Found || kh.Hops != 2 || kh.Total == 0 || len(kh.Layers) == 0 {
		t.Fatalf("k-hop payload %+v", kh)
	}

	path := fmt.Sprintf("/jobs/%d", v.ID)
	checkRequests(t, base, []request{
		{http.MethodGet, path + "/vertices/999999999", nil, http.StatusNotFound},
		{http.MethodGet, path + "/vertices/abc", nil, http.StatusBadRequest},
		{http.MethodGet, path + "/topk?by=rank", nil, http.StatusBadRequest},
		{http.MethodGet, path + "/topk?k=0", nil, http.StatusBadRequest},
		{http.MethodGet, path + "/neighbors/1?hops=x", nil, http.StatusBadRequest},
		{http.MethodGet, path + "/neighbors/999999999", nil, http.StatusNotFound},
		{http.MethodGet, path + "/bogus", nil, http.StatusNotFound},
		{http.MethodPost, path + "/vertices/1", nil, http.StatusMethodNotAllowed},
		{http.MethodGet, path + "/mutations", nil, http.StatusMethodNotAllowed},
		{http.MethodPut, path, nil, http.StatusMethodNotAllowed},
	})

	// Re-submission under the same name: the new run's endpoint serves
	// its own version, the superseded run's reports it retired.
	var v2 jobView
	doJSON(t, http.MethodPost, base+"/jobs", jobRequest{
		Algorithm: "pagerank", Input: "/in/web", Output: "/out/pr2", Iterations: 6,
	}, http.StatusAccepted, &v2)
	waitJobState(t, base, v2.ID, "done")
	dump2 := dumpValues(t, base, "/out/pr2")
	var vr2 core.VertexQueryResult
	getJSON(t, fmt.Sprintf("%s/jobs/%d/vertices/1", base, v2.ID), &vr2)
	if vr2.Value != dump2[1] {
		t.Fatalf("re-submitted job served %q, its dump has %q", vr2.Value, dump2[1])
	}
	doJSON(t, http.MethodGet, job+"/vertices/1", nil, http.StatusNotFound, nil)
}

// conformQueued is the conformance servers' -max-queued.
const conformQueued = 4

// conformQueueAndCancel holds one job running and a full queue behind
// it: the next submission bounces, no live job can be read or mutated,
// DELETE cancels a job in the queue as well as one mid-superstep, and
// the queue drains in submission order.
func conformQueueAndCancel(t *testing.T, base string, srv *server) {
	var running jobView
	doJSON(t, http.MethodPost, base+"/jobs", longJob, http.StatusAccepted, &running)
	waitJobState(t, base, running.ID, "running")
	short := jobRequest{Algorithm: "cc", Input: "/in/web"}
	var queued []jobView
	for len(queued) < conformQueued {
		var v jobView
		doJSON(t, http.MethodPost, base+"/jobs", short, http.StatusAccepted, &v)
		queued = append(queued, v)
	}
	for _, q := range queued {
		if cur := pollJob(t, base, q.ID); cur.State != "queued" {
			t.Fatalf("job %d is %s behind a running one, want queued", q.ID, cur.State)
		}
	}
	// The slot's job plus -max-queued waiting is the bound, on either engine.
	var full map[string]string
	doJSON(t, http.MethodPost, base+"/jobs", short, http.StatusServiceUnavailable, &full)
	if !strings.HasPrefix(full["error"], "job queue full") {
		t.Fatalf("submission past the bound answered %q, want job queue full", full["error"])
	}
	checkRequests(t, base, []request{
		{http.MethodGet, fmt.Sprintf("/jobs/%d/vertices/1", running.ID), nil, http.StatusConflict},
		{http.MethodGet, fmt.Sprintf("/jobs/%d/topk", queued[0].ID), nil, http.StatusConflict},
		{http.MethodPost, fmt.Sprintf("/jobs/%d/mutations", running.ID), nil, http.StatusConflict},
	})

	// Cancel a queued job: it never runs.
	doJSON(t, http.MethodDelete, fmt.Sprintf("%s/jobs/%d", base, queued[0].ID), nil, http.StatusOK, nil)
	if end := waitJobDone(t, base, queued[0].ID, 30*time.Second); end.State != "canceled" || end.RunTimeMS != 0 {
		t.Fatalf("canceled queued job ended %+v", end)
	}
	if cur := pollJob(t, base, running.ID); cur.State != "running" {
		t.Fatalf("canceling the queued job disturbed the running one: %+v", cur)
	}
	// The freed place is usable again, and cancel lands mid-superstep.
	var next jobView
	doJSON(t, http.MethodPost, base+"/jobs", short, http.StatusAccepted, &next)
	doJSON(t, http.MethodDelete, fmt.Sprintf("%s/jobs/%d", base, running.ID), nil, http.StatusOK, nil)
	if end := waitJobDone(t, base, running.ID, 30*time.Second); end.State != "canceled" || end.Error == "" {
		t.Fatalf("canceled running job ended %+v", end)
	}
	// What waited runs in the order it was submitted.
	var prev time.Time
	for _, q := range append(queued[1:], next) {
		if end := waitJobDone(t, base, q.ID, 60*time.Second); end.State != "done" || end.QueueWaitMS <= 0 {
			t.Fatalf("job queued behind the canceled one ended %+v", end)
		}
		srv.mu.Lock()
		j := srv.jobs[q.ID]
		srv.mu.Unlock()
		j.mu.Lock()
		started := j.started
		j.mu.Unlock()
		if !started.After(prev) {
			t.Fatalf("job %d started at %v, not after its predecessor in the queue (%v)", q.ID, started, prev)
		}
		prev = started
	}
}

// conformMutations drives the streaming-ingest flow: run deltapagerank,
// POST a mutation batch, poll until the background refresher seals the
// new version, and require point reads to reflect the update — a
// funneled-in vertex's rank rises, an added vertex becomes queryable —
// while the documented error codes cover the bad batches.
func conformMutations(t *testing.T, base string) {
	var v jobView
	doJSON(t, http.MethodPost, base+"/jobs", jobRequest{
		Algorithm: "deltapagerank", Input: "/in/web", Epsilon: 1e-10,
	}, http.StatusAccepted, &v)
	waitJobState(t, base, v.ID, "done")

	const target = 60
	point := func(vid uint64) core.VertexQueryResult {
		var res core.VertexQueryResult
		getJSON(t, fmt.Sprintf("%s/jobs/%d/vertices/%d", base, v.ID, vid), &res)
		return res
	}
	before := point(target)

	// Bad batches: 400 without touching the journal.
	for _, bad := range []string{`{"op":"warp","id":1}`, "not json"} {
		if code, _ := postMutations(t, base, v.ID, bad); code != http.StatusBadRequest {
			t.Fatalf("batch %q returned %d, want 400", bad, code)
		}
	}

	// Funnel edges into the target and add a fresh vertex.
	var batch strings.Builder
	for src := uint64(2); src <= 11; src++ {
		fmt.Fprintf(&batch, "{\"op\":\"addEdge\",\"id\":%d,\"dst\":%d}\n", src, target)
	}
	batch.WriteString(`{"op":"addVertex","id":100000,"value":0.001}` + "\n")
	fmt.Fprintf(&batch, "{\"op\":\"addEdge\",\"id\":100000,\"dst\":%d}\n", target)
	code, seq := postMutations(t, base, v.ID, batch.String())
	if code != http.StatusAccepted || seq == 0 {
		t.Fatalf("mutation batch returned %d seq %d", code, seq)
	}
	cur := waitRefreshed(t, base, v.ID, seq)
	if cur.Version != fmt.Sprintf("%s@d%d", cur.Name, seq) {
		t.Fatalf("refreshed status carries version %q, want %s@d%d", cur.Version, cur.Name, seq)
	}

	// The same query endpoint now serves the refreshed version.
	ob, _ := strconv.ParseFloat(before.Value, 64)
	oa, _ := strconv.ParseFloat(point(target).Value, 64)
	if oa <= ob {
		t.Fatalf("10 new in-edges did not raise vertex %d's rank (%v -> %v)", target, ob, oa)
	}
	if added := point(100000); !added.Found {
		t.Fatalf("added vertex not queryable: %+v", added)
	}

	// A second batch chains onto the refreshed version.
	code, seq2 := postMutations(t, base, v.ID, `{"op":"addEdge","id":100000,"dst":1}`)
	if code != http.StatusAccepted || seq2 <= seq {
		t.Fatalf("second batch returned %d seq %d", code, seq2)
	}
	if cur = waitRefreshed(t, base, v.ID, seq2); strings.Count(cur.Version, "@d") != 2 {
		t.Fatalf("second refresh sealed %q, want a twice-@d-suffixed version", cur.Version)
	}
}

// TestServeJobTableRetention lowers the table's bound on finished jobs
// and requires, on either backend, that the oldest are evicted (404),
// the newest stay listed and persisted, and a retained job's sealed
// result still answers.
func TestServeJobTableRetention(t *testing.T) {
	for _, be := range serveBackends {
		t.Run(be.name, func(t *testing.T) {
			stateDir := t.TempDir()
			base := be.start(t, func(s *server) { s.retain, s.stateDir = 3, stateDir })
			uploadGraph(t, base, "/in/web")
			var ids []int64
			for i := 0; i < 6; i++ {
				var v jobView
				doJSON(t, http.MethodPost, base+"/jobs", jobRequest{
					Algorithm: "cc", Name: fmt.Sprintf("cc-%d", i), Input: "/in/web",
				}, http.StatusAccepted, &v)
				waitJobState(t, base, v.ID, "done")
				ids = append(ids, v.ID)
			}
			// A live job neither counts against the bound nor is evicted.
			var live jobView
			doJSON(t, http.MethodPost, base+"/jobs", longJob, http.StatusAccepted, &live)
			want := append(ids[3:], live.ID)

			var list []jobView
			getJSON(t, base+"/jobs", &list)
			var listed []int64
			for _, v := range list {
				listed = append(listed, v.ID)
			}
			if fmt.Sprint(listed) != fmt.Sprint(want) {
				t.Fatalf("table lists jobs %v, want %v", listed, want)
			}
			for _, id := range ids[:3] {
				doJSON(t, http.MethodGet, fmt.Sprintf("%s/jobs/%d", base, id), nil, http.StatusNotFound, nil)
				doJSON(t, http.MethodGet, fmt.Sprintf("%s/jobs/%d/vertices/1", base, id), nil, http.StatusNotFound, nil)
			}
			var vr core.VertexQueryResult
			getJSON(t, fmt.Sprintf("%s/jobs/%d/vertices/1", base, ids[3]), &vr)
			if !vr.Found {
				t.Fatalf("retained job's result lost: %+v", vr)
			}

			// The trimmed table is what reaches the state dir. Ending the
			// live job first also leaves no save in flight behind the test.
			doJSON(t, http.MethodDelete, fmt.Sprintf("%s/jobs/%d", base, live.ID), nil, http.StatusOK, nil)
			var reg persistedRegistry
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				data, err := os.ReadFile(filepath.Join(stateDir, "jobs.json"))
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(data, &reg); err != nil {
					t.Fatal(err)
				}
				if n := len(reg.Jobs); n > 0 && reg.Jobs[n-1].State == "canceled" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("canceled job never reached the persisted table: %+v", reg.Jobs)
				}
			}
			var saved []int64
			for _, pj := range reg.Jobs {
				saved = append(saved, pj.ID)
			}
			// The canceled job is a fourth finished one: the oldest goes.
			if want = want[1:]; fmt.Sprint(saved) != fmt.Sprint(want) || reg.NextID != live.ID {
				t.Fatalf("persisted table holds jobs %v next id %d, want %v and %d", saved, reg.NextID, want, live.ID)
			}
		})
	}
}

// TestServeRunClockCoversRun: on either engine a job's run clock starts
// before its engine run and stops after it, so every done job's
// finished − started is at least its engine's own TotalDuration, however
// fast the job. 200 two-vertex jobs go through the engine's slot, four
// at a time.
func TestServeRunClockCoversRun(t *testing.T) {
	for _, be := range serveBackends {
		t.Run(be.name, func(t *testing.T) {
			var srv *server
			base := be.start(t, func(s *server) { srv = s })
			putFile(t, base, "/in/tiny", []byte("1\t2\n2\t1\n"))
			short, first := 0, ""
			for wave := 0; wave < 50; wave++ {
				var ids []int64
				for i := 0; i < 4; i++ {
					var v jobView
					doJSON(t, http.MethodPost, base+"/jobs", jobRequest{
						Algorithm: "cc", Name: fmt.Sprintf("tiny-%d-%d", wave, i), Input: "/in/tiny",
					}, http.StatusAccepted, &v)
					ids = append(ids, v.ID)
				}
				for _, id := range ids {
					waitJobState(t, base, id, "done")
					srv.mu.Lock()
					j := srv.jobs[id]
					srv.mu.Unlock()
					j.mu.Lock()
					clock, engine := j.finished.Sub(j.started), j.stats.TotalDuration
					j.mu.Unlock()
					if clock < engine {
						if short++; first == "" {
							first = fmt.Sprintf("job %d ran %v by its clock, %v in its engine", id, clock, engine)
						}
					}
				}
			}
			if short > 0 {
				t.Fatalf("%d of 200 jobs have a run clock shorter than their engine run (%s)", short, first)
			}
		})
	}
}

// TestServeCloseRejectsSubmit: once the server has closed its gate and
// drained, on either engine, a submission is refused with 503 and
// leaves no row in the table.
func TestServeCloseRejectsSubmit(t *testing.T) {
	for _, be := range serveBackends {
		t.Run(be.name, func(t *testing.T) {
			var srv *server
			base := be.start(t, func(s *server) { srv = s })
			putFile(t, base, "/in/tiny", []byte("1\t2\n2\t1\n"))
			var v jobView
			doJSON(t, http.MethodPost, base+"/jobs", jobRequest{Algorithm: "cc", Input: "/in/tiny"}, http.StatusAccepted, &v)
			waitJobState(t, base, v.ID, "done")
			srv.close()
			var refused map[string]string
			doJSON(t, http.MethodPost, base+"/jobs", jobRequest{Algorithm: "cc", Input: "/in/tiny"}, http.StatusServiceUnavailable, &refused)
			if !strings.Contains(refused["error"], core.ErrGateClosed.Error()) {
				t.Fatalf("submission after close answered %q, want %q", refused["error"], core.ErrGateClosed)
			}
			var list []jobView
			getJSON(t, base+"/jobs", &list)
			if len(list) != 1 || list[0].ID != v.ID {
				t.Fatalf("job list after a refused submission: %+v", list)
			}
		})
	}
}

// TestServeHandOffKeepsRegistry: a server that hands its jobs off — a
// controller that lost its lease, or a cluster controller shutting
// down — cancels a running job and the one queued behind it, closes,
// and leaves the persisted registry as it was, so the next controller
// loads both as in flight and resumes them.
func TestServeHandOffKeepsRegistry(t *testing.T) {
	for _, be := range serveBackends {
		t.Run(be.name, func(t *testing.T) {
			stateDir := t.TempDir()
			var srv *server
			base := be.start(t, func(s *server) { srv, s.stateDir = s, stateDir })
			uploadGraph(t, base, "/in/web")
			var ids []int64
			for i := 0; i <= srv.be.gate().Slots(); i++ {
				var v jobView
				doJSON(t, http.MethodPost, base+"/jobs", longJob, http.StatusAccepted, &v)
				ids = append(ids, v.ID)
			}
			waitJobState(t, base, ids[0], "running")
			if v := pollJob(t, base, ids[len(ids)-1]); v.State != "queued" {
				t.Fatalf("job %d is %s behind %d slots, want queued", v.ID, v.State, len(ids)-1)
			}
			path := filepath.Join(stateDir, "jobs.json")
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			srv.handOff()
			srv.close()
			for _, j := range srv.snapshot() {
				if !j.terminal() {
					t.Fatalf("job %d still %s after the hand-off", j.id, j.view().State)
				}
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(after) != string(before) {
				t.Fatalf("hand-off rewrote the registry:\nbefore %s\nafter  %s", before, after)
			}
			next := newServer(srv.be)
			next.stateDir = stateDir
			var resumed []int64
			for _, j := range next.loadState() {
				resumed = append(resumed, j.id)
			}
			if fmt.Sprint(resumed) != fmt.Sprint(ids) {
				t.Fatalf("next controller resumes jobs %v, want %v", resumed, ids)
			}
		})
	}
}

// TestServeRestoredJobClock: a job restored from a registry has no
// submission clock, so once it runs it reports a run time and no queue
// wait.
func TestServeRestoredJobClock(t *testing.T) {
	j := &job{state: "queued"}
	j.begin(0)
	time.Sleep(time.Millisecond)
	if v := j.view(); v.QueueWaitMS != 0 || v.RunTimeMS <= 0 {
		t.Fatalf("restored job reports queue wait %v ms, run time %v ms", v.QueueWaitMS, v.RunTimeMS)
	}
}

// TestServeMaxConcurrentOverlap is the single-process engine's own
// case: three jobs through two admission slots overlap but never
// exceed the bound, and /stats reports the scheduler and the simulated
// machines.
// TestServeDoneJobsBegan: a tiny job can be admitted and finish before
// the goroutine that carries it looks at its handle. Its done view must
// still show the operator memory it was admitted with and a run time.
// 200 two-vertex jobs go through two slots, four at a time.
func TestServeDoneJobsBegan(t *testing.T) {
	ts, _ := newTestServer(t, 2, nil)
	putFile(t, ts.URL, "/in/tiny", []byte("1\t2\n2\t1\n"))
	for wave := 0; wave < 50; wave++ {
		var ids []int64
		for i := 0; i < 4; i++ {
			var v jobView
			doJSON(t, http.MethodPost, ts.URL+"/jobs", jobRequest{
				Algorithm: "cc",
				Name:      fmt.Sprintf("tiny-%d-%d", wave, i),
				Input:     "/in/tiny",
				Output:    fmt.Sprintf("/out/tiny-%d-%d", wave, i),
			}, http.StatusAccepted, &v)
			ids = append(ids, v.ID)
		}
		for _, id := range ids {
			if v := waitJobState(t, ts.URL, id, "done"); v.OperatorMem <= 0 || v.RunTimeMS <= 0 {
				t.Fatalf("job %d: done view %+v, want operator memory and a run time", id, v)
			}
		}
	}
}

func TestServeMaxConcurrentOverlap(t *testing.T) {
	ts, _ := newTestServer(t, 2, nil)
	uploadGraph(t, ts.URL, "/in/web")

	var ids []int64
	for i := 0; i < 3; i++ {
		var v jobView
		doJSON(t, http.MethodPost, ts.URL+"/jobs", jobRequest{
			Algorithm: "cc",
			Name:      fmt.Sprintf("serve-cc-%d", i),
			Input:     "/in/web",
			Output:    fmt.Sprintf("/out/cc-%d", i),
		}, http.StatusAccepted, &v)
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if cur := waitJobState(t, ts.URL, id, "done"); cur.Supersteps == 0 || cur.Vertices != 120 || cur.OperatorMem == 0 {
			t.Fatalf("done job view %+v", cur)
		}
	}
	if out := getFile(t, ts.URL, "/out/cc-0"); !bytes.Contains(out, []byte("\t")) {
		t.Fatalf("result download: %q", out)
	}

	stats := statsView{localStats: &localStats{}}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.Scheduler.Completed != 3 || stats.Scheduler.Submitted != 3 {
		t.Fatalf("scheduler stats %+v", stats.Scheduler)
	}
	if stats.Scheduler.PeakRunning > 2 {
		t.Fatalf("admission bound violated: %+v", stats.Scheduler)
	}
	if stats.Jobs.Done != 3 || stats.Manager.TotalSupersteps == 0 {
		t.Fatalf("table stats %+v %+v", stats.Jobs, stats.Manager)
	}
	if len(stats.Cluster.Nodes) != 2 {
		t.Fatalf("cluster stats %+v", stats.Cluster)
	}
}
