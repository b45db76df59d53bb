package main

import (
	"bytes"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"pregelix/internal/graphgen"
)

// TestPlanHintSpellings: the CLI and serve read the plan hints through
// one parser, so the planner's join, "auto", is accepted by both, and a
// bad hint is refused by both: exit status 2 on the command line, 400
// from the API.
func TestPlanHintSpellings(t *testing.T) {
	bin := buildBinary(t)
	graph := filepath.Join(t.TempDir(), "g.txt")
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, graphgen.Chain(40, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(graph, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cli := func(hints ...string) ([]byte, error) {
		args := append([]string{"-algorithm", "sssp", "-nodes", "2", "-input", graph}, hints...)
		return exec.Command(bin, args...).Output()
	}
	scanned, err := cli("-join", "fullouter")
	if err != nil {
		t.Fatal(err)
	}
	if auto, err := cli("-join", "auto"); err != nil || !bytes.Equal(auto, scanned) {
		t.Fatalf("-join auto: %v; dump equal to -join fullouter's: %v", err, bytes.Equal(auto, scanned))
	}
	for _, bad := range [][]string{{"-join", "sideways"}, {"-groupby", "hash"}, {"-storage", "lsm-tree"}} {
		_, err := cli(bad...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: %v, want exit status 2", bad, err)
		}
	}

	ts, _ := newTestServer(t, 1, nil)
	putFile(t, ts.URL, "/in/g", buf.Bytes())
	doJSON(t, http.MethodPost, ts.URL+"/jobs", jobRequest{Algorithm: "sssp", Input: "/in/g", Join: "sideways"}, http.StatusBadRequest, nil)
	doJSON(t, http.MethodPost, ts.URL+"/jobs", jobRequest{Algorithm: "sssp", Input: "/in/g", Connector: "zip"}, http.StatusBadRequest, nil)
	id := submitJob(t, ts.URL, `{"algorithm":"sssp","input":"/in/g","output":"/out/auto","join":"auto"}`)
	if v := waitJobDone(t, ts.URL, id, 30*time.Second); v.State != "done" {
		t.Fatalf(`{"join":"auto"}: job ended %s: %s`, v.State, v.Error)
	}
	if got := getFile(t, ts.URL, "/out/auto"); !bytes.Equal(got, scanned) {
		t.Fatalf(`{"join":"auto"} dumped %q, the CLI %q`, got, scanned)
	}
}

// TestServeIgnoresStorageField: a POST /jobs body that still carries the
// retired "storage" hint, as job specs saved before vertex storage became
// B-tree only do, is accepted and runs the job it would run without it.
func TestServeIgnoresStorageField(t *testing.T) {
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, graphgen.Chain(300, 10, 3)); err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, 1, nil)
	putFile(t, ts.URL, "/in/g", buf.Bytes())
	var dumps [][]byte
	for _, storage := range []string{``, `,"storage":"lsm"`} {
		out := "/out/pm" + strconv.Itoa(len(dumps))
		id := submitJob(t, ts.URL, `{"algorithm":"pathmerge","input":"/in/g","output":"`+out+`","iterations":4`+storage+`}`)
		if v := waitJobDone(t, ts.URL, id, 30*time.Second); v.State != "done" {
			t.Fatalf("body with %q: job ended %s: %s", storage, v.State, v.Error)
		}
		dumps = append(dumps, getFile(t, ts.URL, out))
	}
	if len(dumps[0]) == 0 || !bytes.Equal(dumps[0], dumps[1]) {
		t.Fatalf(`with "storage":"lsm" the job dumped %q, without it %q`, dumps[1], dumps[0])
	}
}
