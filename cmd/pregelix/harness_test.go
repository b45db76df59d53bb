package main

// Shared cluster test harness. Two layers:
//
//   - newTestServer / startTestCluster: the server over each backend —
//     the single-process runtime, and an in-process coordinator plus
//     worker goroutines — behind an httptest server, for API-surface
//     tests that don't need process isolation. serveBackends lists both
//     for the tests that must hold on either (serve_test.go).
//   - startProcCluster: real `pregelix serve` / `pregelix worker` OS
//     processes on loopback, for the e2e and chaos tests. The binary is
//     built once per test run. Every listener is OS-assigned: the serve
//     process binds :0 and the harness parses the real addresses from
//     its startup line, so parallel test runs can't collide on ports
//     (the old freeAddr reserve-then-release dance raced with anything
//     else binding on the machine).
//
// Plus the HTTP-level helpers (upload, download, submit, poll) every
// serve-mode test shares.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/graphgen"
)

// ---- binary build (once per test-process) ----

var (
	binOnce sync.Once
	binPath string
	binErr  error
	binDir  string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// buildBinary compiles the pregelix binary once and returns its path;
// every process-spawning test shares the artifact.
func buildBinary(t *testing.T) string {
	t.Helper()
	binOnce.Do(func() {
		binDir, binErr = os.MkdirTemp("", "pregelix-bin-")
		if binErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "pregelix")
		build := exec.Command("go", "build", "-o", binPath, ".")
		build.Env = os.Environ()
		if out, err := build.CombinedOutput(); err != nil {
			binErr = fmt.Errorf("building pregelix: %v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatal(binErr)
	}
	return binPath
}

// syncBuf is a process log buffer safe to read while the process writes.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// serveAddrRe matches the cluster-mode startup line; serve prints the
// REAL bound addresses there, which is what makes -listen :0 usable.
var serveAddrRe = regexp.MustCompile(`waiting for \d+ workers on ([0-9.:]+), HTTP on ([0-9.:]+)`)

// procServe is one `pregelix serve` OS process.
type procServe struct {
	cmd  *exec.Cmd
	log  *syncBuf
	cc   string // control-plane address workers dial
	http string // HTTP API address
}

// waitAddrs blocks until the serve process prints its startup line and
// records the parsed control-plane and HTTP addresses. For a standby
// controller this doubles as "wait for takeover": the line only prints
// once the lease is acquired and the coordinator role assumed.
func (p *procServe) waitAddrs(t *testing.T, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if m := serveAddrRe.FindStringSubmatch(p.log.String()); m != nil {
			p.cc, p.http = m[1], m[2]
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("serve never printed its addresses; log:\n%s", p.log.String())
}

// procCluster drives a real multi-process cluster: one serve process
// (restartable — the chaos tests kill it) plus worker processes.
type procCluster struct {
	t       *testing.T
	ctx     context.Context
	bin     string
	workers int
	serve   *procServe
	// workerArgs is appended to every worker's command line (the chaos
	// tests start workers with -rejoin so they survive a controller
	// restart).
	workerArgs []string
	// workerProcs holds every spawned worker's handle in start order, so
	// fault-injection tests can SIGKILL a specific assembly worker.
	workerProcs []*exec.Cmd
}

// startServeProc spawns one serve process with the given extra args and
// registers kill-and-log-dump cleanup.
func (c *procCluster) startServeProc(name string, args ...string) *procServe {
	c.t.Helper()
	p := &procServe{log: &syncBuf{}}
	full := append([]string{"serve", "-workers", strconv.Itoa(c.workers)}, args...)
	p.cmd = exec.CommandContext(c.ctx, c.bin, full...)
	p.cmd.Stderr = p.log
	if err := p.cmd.Start(); err != nil {
		c.t.Fatal(err)
	}
	t := c.t
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
		if t.Failed() {
			t.Logf("%s log:\n%s", name, p.log.String())
		}
	})
	return p
}

// startProcCluster builds the binary, starts `pregelix serve` in
// cluster mode on OS-assigned ports (plus any extra serve args) and
// `workers` worker processes, and waits for the cluster to assemble.
func startProcCluster(t *testing.T, ctx context.Context, workers int, serveArgs ...string) *procCluster {
	t.Helper()
	return startProcClusterWorkers(t, ctx, workers, nil, serveArgs...)
}

// startProcClusterWorkers is startProcCluster with extra per-worker
// command-line args.
func startProcClusterWorkers(t *testing.T, ctx context.Context, workers int, workerArgs []string, serveArgs ...string) *procCluster {
	t.Helper()
	c := &procCluster{t: t, ctx: ctx, bin: buildBinary(t), workers: workers, workerArgs: workerArgs}
	args := append([]string{"-listen", "127.0.0.1:0", "-cluster-listen", "127.0.0.1:0"}, serveArgs...)
	c.serve = c.startServeProc("serve", args...)
	c.serve.waitAddrs(t, 30*time.Second)
	for i := 0; i < workers; i++ {
		c.startWorker(fmt.Sprintf("worker%d", i+1))
	}
	waitHealthy(t, c.base()+"/healthz")
	return c
}

// startWorker attaches one worker process (2 nodes, plus extra args)
// to the cluster's control plane.
func (c *procCluster) startWorker(name string, args ...string) *exec.Cmd {
	c.t.Helper()
	log := &syncBuf{}
	full := append([]string{"worker", "-cc", c.serve.cc, "-nodes", "2"}, c.workerArgs...)
	full = append(full, args...)
	w := exec.CommandContext(c.ctx, c.bin, full...)
	w.Stderr = log
	if err := w.Start(); err != nil {
		c.t.Fatal(err)
	}
	t := c.t
	t.Cleanup(func() {
		w.Process.Kill()
		w.Wait()
		if t.Failed() {
			t.Logf("%s log:\n%s", name, log.String())
		}
	})
	c.workerProcs = append(c.workerProcs, w)
	return w
}

func (c *procCluster) base() string { return "http://" + c.serve.http }

// killServe SIGKILLs the serve process — no drain, no lease release —
// simulating a coordinator host loss.
func (c *procCluster) killServe() {
	c.serve.cmd.Process.Kill()
	c.serve.cmd.Wait()
}

// restartServe starts a replacement serve process on the SAME
// control-plane address (so -rejoin workers find it again) and a fresh
// OS-assigned HTTP port, then waits for it to come up.
func (c *procCluster) restartServe(serveArgs ...string) {
	c.t.Helper()
	args := append([]string{"-listen", "127.0.0.1:0", "-cluster-listen", c.serve.cc}, serveArgs...)
	p := c.startServeProc("serve-restarted", args...)
	p.waitAddrs(c.t, 60*time.Second)
	c.serve = p
}

// startStandby starts a warm standby controller pinned to the same
// control-plane address (it only binds after taking the lease over).
// The caller kills the primary, then promotes via p.waitAddrs +
// c.adoptServe(p).
func (c *procCluster) startStandby(serveArgs ...string) *procServe {
	c.t.Helper()
	args := append([]string{"-listen", "127.0.0.1:0", "-cluster-listen", c.serve.cc, "-standby-cc"}, serveArgs...)
	return c.startServeProc("serve-standby", args...)
}

// adoptServe makes a promoted standby the cluster's serve process.
func (c *procCluster) adoptServe(p *procServe) { c.serve = p }

// ---- in-process harnesses ----

// serveBackends are the two engines every conformance test runs
// against, behind the one server. tune, when non-nil, adjusts the
// server (queue bound, retention, state dir) before it takes requests.
var serveBackends = []struct {
	name  string
	start func(t *testing.T, tune func(*server)) string
	// statsKeys is the engine's own section of GET /stats.
	statsKeys []string
	// scaleCode is what GET /scale answers.
	scaleCode int
}{
	{
		name: "single",
		start: func(t *testing.T, tune func(*server)) string {
			// One slot, so a second job provably waits in the queue.
			ts, _ := newTestServer(t, 1, tune)
			return ts.URL
		},
		statsKeys: []string{"scheduler", "queued", "running", "cluster"},
		scaleCode: http.StatusNotFound,
	},
	{
		name: "cluster",
		start: func(t *testing.T, tune func(*server)) string {
			ts, _ := startTestCluster(t, 2, tune)
			return ts.URL
		},
		statsKeys: []string{"workers", "standbys", "nodes", "recovery", "rebalance", "adaptive"},
		scaleCode: http.StatusOK,
	},
}

// newTestServer boots the single-process serve stack (simulated
// runtime + JobManager) behind an httptest server.
func newTestServer(t *testing.T, maxConcurrent int, tune func(*server)) (*httptest.Server, *core.JobManager) {
	t.Helper()
	rt, err := core.NewRuntime(core.Options{
		BaseDir: t.TempDir(),
		Nodes:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewJobManager(rt, core.JobManagerOptions{MaxConcurrentJobs: maxConcurrent})
	s := newServer(localBackend{m})
	if tune != nil {
		tune(s)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		cancelAllJobs(s)
		m.Close()
		rt.Close()
	})
	return ts, m
}

// cancelAllJobs cancels whatever a test left queued or running and
// waits for it to end, so closing the engine does not wait for a
// 100000-iteration job and no job outlives (and logs into) its test.
func cancelAllJobs(s *server) {
	jobs := s.snapshot()
	for _, j := range jobs {
		j.cancel()
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, j := range jobs {
		for !j.terminal() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

// startTestCluster boots an in-process coordinator plus worker
// goroutines and wraps them in the server, so the cluster backend is
// exercised against a real (single-address-space) cluster without
// process-spawn cost.
func startTestCluster(t *testing.T, workers int, tune func(*server)) (*httptest.Server, *core.Coordinator) {
	t.Helper()
	coord, err := core.NewCoordinator(core.CoordinatorConfig{
		ListenAddr: "127.0.0.1:0",
		Workers:    workers,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		coord.Close()
		cancel()
	})
	for i := 0; i < workers; i++ {
		dir := t.TempDir()
		go func() {
			core.RunWorker(ctx, core.WorkerConfig{
				CCAddr:   coord.Addr(),
				BaseDir:  dir,
				Nodes:    2,
				BuildJob: buildJobFromSpec,
			})
		}()
	}
	readyCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := coord.WaitReady(readyCtx); err != nil {
		t.Fatalf("cluster never became ready: %v", err)
	}
	s := newServer(newClusterBackend(coord, ""))
	if tune != nil {
		tune(s)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		cancelAllJobs(s)
	})
	return ts, coord
}

// ---- shared HTTP helpers ----

// putFile uploads a file through the serve API.
func putFile(t *testing.T, base, path string, data []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/files"+path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s: status %d", path, resp.StatusCode)
	}
}

// getFile downloads a file through the serve API.
func getFile(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/files" + path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download %s: status %d", path, resp.StatusCode)
	}
	return data
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// submitJob POSTs a job request body and returns the assigned id.
func submitJob(t *testing.T, base, body string) int64 {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d err %v", resp.StatusCode, err)
	}
	return v.ID
}

// pollJob fetches one job's status view.
func pollJob(t *testing.T, base string, id int64) jobView {
	t.Helper()
	var v jobView
	getJSON(t, fmt.Sprintf("%s/jobs/%d", base, id), &v)
	return v
}

// waitJobDone polls until the job reaches a terminal state.
func waitJobDone(t *testing.T, base string, id int64, timeout time.Duration) jobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v := pollJob(t, base, id)
		if v.State == "done" || v.State == "failed" || v.State == "canceled" {
			return v
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("job %d never finished", id)
	return jobView{}
}

// doJSON performs one JSON request, fails the test on a status
// mismatch, and decodes the response into out when non-nil.
func doJSON(t *testing.T, method, url string, body any, wantCode int, out any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("%s %s = %d, want %d: %s", method, url, resp.StatusCode, wantCode, msg.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// uploadGraph PUTs a standard test webmap at the given file path.
func uploadGraph(t *testing.T, baseURL, path string) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, graphgen.Webmap(120, 3, 31)); err != nil {
		t.Fatal(err)
	}
	putFile(t, baseURL, path, buf.Bytes())
}

// waitJobState polls a job until it reaches the wanted state.
func waitJobState(t *testing.T, baseURL string, id int64, want string) jobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur := pollJob(t, baseURL, id)
		if cur.State == want {
			return cur
		}
		if cur.State == "failed" || cur.State == "canceled" {
			t.Fatalf("job %d ended %s: %s", id, cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %s, want %s", id, cur.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitTCP polls until something is listening at addr.
func waitTCP(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("nothing listening at %s", addr)
}

// waitHealthy polls the health endpoint until the cluster reports ready.
func waitHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("cluster never became healthy at %s", url)
}

// compareRanks requires two dumped PageRank outputs to agree per vertex
// within float tolerance.
func compareRanks(t *testing.T, a, b []byte) {
	t.Helper()
	parse := func(out []byte) map[string]float64 {
		m := map[string]float64{}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			fields := strings.SplitN(line, "\t", 3)
			if len(fields) < 2 {
				t.Fatalf("malformed output line %q", line)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("bad rank in %q: %v", line, err)
			}
			m[fields[0]] = v
		}
		return m
	}
	am, bm := parse(a), parse(b)
	if len(am) != len(bm) {
		t.Fatalf("vertex counts differ: %d vs %d", len(am), len(bm))
	}
	for id, av := range am {
		bv, ok := bm[id]
		if !ok {
			t.Fatalf("vertex %s missing from recovered output", id)
		}
		diff := math.Abs(av - bv)
		if tol := 1e-6 * math.Max(math.Abs(av), math.Abs(bv)); diff > tol && diff > 1e-300 {
			t.Fatalf("vertex %s: rank %v vs %v", id, av, bv)
		}
	}
}
