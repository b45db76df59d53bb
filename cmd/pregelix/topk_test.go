package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"pregelix/internal/core"
	"pregelix/pregel"
)

// TestServeTopKNonFinite: in process, a sealed Double result holding
// +Inf, -Inf and NaN answers GET /jobs/{id}/topk with 200 and every row:
// the finite values by value descending, then the others by text
// descending ("NaN" > "-Inf" > "+Inf"), each with score 0, ties by vid.
func TestServeTopKNonFinite(t *testing.T) {
	var srv *server
	ts, _ := newTestServer(t, 1, func(s *server) { srv = s })
	uploadGraph(t, ts.URL, "/in/web")
	// A program no request names: admitted the way POST /jobs admits one.
	pj := &pregel.Job{
		Name: "nonfinite",
		Program: pregel.ProgramFunc(func(_ pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
			id := float64(v.ID)
			*v.Value.(*pregel.Double) = pregel.Double([]float64{math.Inf(1), math.Inf(-1), math.NaN(), -id, id}[v.ID%5])
			v.VoteToHalt()
			return nil
		}),
		Codec:      pregel.Codec{NewVertexValue: pregel.NewDouble, NewMessage: pregel.NewDouble},
		InputPath:  "/in/web",
		OutputPath: "/out/nf",
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{ctx: ctx, cancel: cancel, state: "queued", submitted: time.Now()}
	srv.mu.Lock()
	j.id = srv.nextID + 1
	if err := srv.submitLocked(j, pj, false); err != nil {
		srv.mu.Unlock()
		t.Fatal(err)
	}
	srv.nextID, srv.jobs[j.id], srv.order = j.id, j, append(srv.order, j.id)
	srv.mu.Unlock()
	waitJobState(t, ts.URL, j.id, "done")

	lines := map[uint64]string{}
	for _, line := range strings.Split(strings.TrimRight(string(getFile(t, ts.URL, "/out/nf")), "\n"), "\n") {
		vid, _ := strconv.ParseUint(line[:strings.IndexByte(line, '\t')], 10, 64)
		lines[vid] = line
	}
	vids := slices.Sorted(maps.Keys(lines))
	var order []uint64
	for _, vid := range slices.Backward(vids) {
		if vid%5 == 4 {
			order = append(order, vid)
		}
	}
	for _, class := range []uint64{3, 2, 1, 0} {
		for _, vid := range vids {
			if vid%5 == class {
				order = append(order, vid)
			}
		}
	}

	var tk struct {
		K       int              `json:"k"`
		Entries []core.TopKEntry `json:"entries"`
	}
	getJSON(t, fmt.Sprintf("%s/jobs/%d/topk?by=value&k=%d", ts.URL, j.id, len(order)+2), &tk)
	if len(tk.Entries) != len(order) {
		t.Fatalf("top-k has %d entries, want %d", len(tk.Entries), len(order))
	}
	for i, e := range tk.Entries {
		value := strings.Split(lines[e.Vid], "\t")[1]
		score := 0.0
		if e.Vid%5 >= 3 {
			score, _ = strconv.ParseFloat(value, 64)
		}
		if e.Vid != order[i] || e.Value != value || e.Score != score || e.Line != lines[e.Vid] {
			t.Fatalf("entry %d = %+v, want vertex %d (line %q, score %v)", i, e, order[i], lines[order[i]], score)
		}
	}
}

// TestWriteJSONUnencodable: an answer JSON cannot encode is a 500 with
// an error body, not a 200 with an empty one.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"score": math.Inf(1)})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError || body["error"] == "" {
		t.Fatalf("status %d, body %q (%v)", rec.Code, rec.Body.String(), err)
	}
}
