package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/delta"
	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// serveMain runs the always-on serving mode: one HTTP server and job
// table over one engine — the single-process runtime under admission
// control, or with -workers N a coordinator scheduling every job across
// `pregelix worker` processes (backend.go).
func serveMain(args []string) {
	fs := flag.NewFlagSet("pregelix serve", flag.ExitOnError)
	var (
		listen        = fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
		nodes         = fs.Int("nodes", 4, "simulated cluster size")
		ram           = fs.Int64("ram", 0, "per-machine RAM budget in bytes (0 = unlimited)")
		partitions    = fs.Int("partitions-per-node", 1, "graph partitions per machine")
		maxConcurrent = fs.Int("max-concurrent", 2, "jobs allowed in flight at once")
		maxQueued     = fs.Int("max-queued", 64, "queued-job bound (0 = unlimited)")
		baseDir       = fs.String("dir", "", "cluster state directory (default: a temp dir)")
		workers       = fs.Int("workers", 0, "cluster mode: number of pregelix worker processes to wait for (0 = single-process simulation)")
		clusterListen = fs.String("cluster-listen", "127.0.0.1:9090", "cluster mode: control-plane address workers register at")
		replaceWait   = fs.Duration("replace-wait", 0, "cluster mode: how long failure recovery waits for a standby worker before redistributing the dead worker's nodes over survivors")
		compress      = fs.String("compress", "auto", "frame compression for checkpoint images: off, flate, or auto (cluster mode: set per worker with `pregelix worker -compress`)")
		stateDir      = fs.String("state-dir", "", "cluster mode: durable coordinator state directory (checkpoint store, sealed-version catalog, job registry, lease); a restarted controller pointed here resumes where the dead one stopped")
		standbyCC     = fs.Bool("standby-cc", false, "cluster mode: start as a warm standby controller — wait for the coordinator lease in -state-dir to lapse, then take over")
		leaseInterval = fs.Duration("lease-interval", 2*time.Second, "cluster mode: coordinator lease renewal interval (a standby takes over after 3 missed renewals)")
		adaptive      = fs.Bool("adaptive", false, "cluster mode: enable the runtime-stats feedback loop — hot-partition splitting and straggler relief (event log under /stats, with the join planner's switches)")
	)
	fs.Parse(args)

	mode, err := tuple.ParseCompressMode(*compress)
	if err != nil {
		fatal(err)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	shutdown := make(chan struct{})
	go func() {
		<-stop
		close(shutdown)
	}()

	var (
		be     backend
		lease  *core.Lease
		banner string
	)
	if *workers > 0 {
		// Cluster mode: machines come from the registered workers, jobs
		// run one at a time across the whole cluster, and files live in
		// controller memory — flags that configure the in-process
		// simulation have no effect.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "nodes", "dir", "max-concurrent":
				fmt.Fprintf(os.Stderr, "pregelix serve: -%s is ignored in cluster mode\n", f.Name)
			case "compress":
				// Workers own their bulk byte streams; the controller has none.
				fmt.Fprintf(os.Stderr, "pregelix serve: -compress is ignored in cluster mode (set it per worker: pregelix worker -compress)\n")
			}
		})
		if *standbyCC && *stateDir == "" {
			fatal(errors.New("pregelix serve: -standby-cc requires -state-dir (the lease lives there)"))
		}
		if *stateDir != "" {
			if lease = holdLease(*stateDir, *standbyCC, *leaseInterval, shutdown); lease == nil {
				return
			}
			defer lease.Release()
		}
		coord, err := core.NewCoordinator(core.CoordinatorConfig{
			ListenAddr:        *clusterListen,
			Workers:           *workers,
			PartitionsPerNode: *partitions,
			RAMBytes:          *ram,
			ReplaceWait:       *replaceWait,
			StateDir:          *stateDir,
			Adaptive:          core.AdaptiveOptions{Enabled: *adaptive},
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "pregelix "+format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		defer coord.Close()
		be = newClusterBackend(coord, *stateDir)
		banner = fmt.Sprintf("cluster mode — waiting for %d workers on %s", *workers, coord.Addr())
	} else {
		if *stateDir != "" || *standbyCC {
			fatal(errors.New("pregelix serve: -state-dir and -standby-cc require cluster mode (-workers N)"))
		}
		if *adaptive {
			fatal(errors.New("pregelix serve: -adaptive requires cluster mode (-workers N): it splits and moves partitions between workers; join: auto plans the join per superstep in either mode"))
		}
		dir := *baseDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "pregelix-serve-")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(dir)
		}
		rt, err := core.NewRuntime(core.Options{
			BaseDir:           dir,
			Nodes:             *nodes,
			PartitionsPerNode: *partitions,
			NodeConfig:        hyracks.NodeConfig{RAMBytes: *ram},
			Compress:          mode,
		})
		if err != nil {
			fatal(err)
		}
		defer rt.Close()
		m := core.NewJobManager(rt, core.JobManagerOptions{MaxConcurrentJobs: *maxConcurrent})
		defer m.Close()
		be = localBackend{m}
		banner = fmt.Sprintf("%d machines, %d concurrent jobs", *nodes, *maxConcurrent)
	}

	s := newServer(be)
	s.maxQueued, s.stateDir = *maxQueued, *stateDir
	resume := s.loadState()

	// Bind explicitly so -listen :0 works and the printed address is the
	// real one (the process test harness parses this line).
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: s}
	go func() {
		<-shutdown
		fmt.Fprintln(os.Stderr, "pregelix serve: draining")
		srv.Close()
	}()
	if lease != nil {
		renewDone := make(chan struct{})
		defer close(renewDone)
		go func() {
			tick := time.NewTicker(lease.Interval() / 2)
			defer tick.Stop()
			for {
				select {
				case <-renewDone:
					return
				case <-tick.C:
				}
				if err := lease.Renew(); err != nil {
					fmt.Fprintf(os.Stderr, "pregelix serve: coordinator lease lost (%v) — stepping down\n", err)
					srv.Close()
					return
				}
			}
		}()
	}
	if *stateDir != "" {
		go s.resumeRestored(resume)
	}

	fmt.Fprintf(os.Stderr, "pregelix serve: %s, HTTP on %s\n", banner, ln.Addr())
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
}

// holdLease guards coordinatorship of stateDir with a lease file: the
// primary renews it, a standby parks here until the record lapses, and
// a fenced zombie steps down when Renew fails. It returns nil when a
// standby was told to stop before the lease came its way.
func holdLease(stateDir string, standby bool, interval time.Duration, shutdown <-chan struct{}) *core.Lease {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		fatal(err)
	}
	leasePath := filepath.Join(stateDir, "cc.lease")
	host, _ := os.Hostname()
	holder := fmt.Sprintf("%s/%d", host, os.Getpid())
	if standby {
		fmt.Fprintf(os.Stderr, "pregelix serve: standby — watching coordinator lease %s\n", leasePath)
		lease, err := core.WaitForLease(shutdown, leasePath, holder, interval)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pregelix serve: standby stopped: %v\n", err)
			return nil
		}
		fmt.Fprintf(os.Stderr, "pregelix serve: lease acquired (epoch %d) — assuming coordinator role\n", lease.Epoch())
		return lease
	}
	lease, err := core.AcquireLease(leasePath, holder, interval)
	if errors.Is(err, core.ErrLeaseHeld) {
		// A coordinator that was SIGKILLed leaves a fresh-looking
		// record behind; a restart should wait out the staleness
		// window (3 renewal intervals), not fail. A genuinely live
		// holder keeps renewing and keeps us parked — which is the
		// mutual exclusion working.
		fmt.Fprintf(os.Stderr, "pregelix serve: %v — waiting for it to lapse\n", err)
		lease, err = core.WaitForLease(shutdown, leasePath, holder, interval)
	}
	if err != nil {
		fatal(err)
	}
	return lease
}

// maxRetainedJobs is how many finished jobs the table keeps; queued and
// running jobs are never evicted.
const maxRetainedJobs = 1024

// server is the HTTP API and the job table. Everything that runs,
// stores or reads a graph sits behind its backend.
type server struct {
	be  backend
	mux *http.ServeMux
	// maxQueued bounds the jobs waiting behind the backend's running
	// slots (0 = unbounded).
	maxQueued int
	// retain is maxRetainedJobs, lowered by tests.
	retain int
	// stateDir, when set, backs the table with disk (serve_state.go) so
	// a controller restart resumes it; saveMu serializes the writes.
	stateDir string
	saveMu   sync.Mutex

	mu     sync.Mutex
	jobs   map[int64]*job
	order  []int64
	nextID int64

	// trackerMu serializes opening a job's ingest tracker.
	trackerMu sync.Mutex
}

func newServer(be backend) *server {
	s := &server{
		be:     be,
		mux:    http.NewServeMux(),
		retain: maxRetainedJobs,
		jobs:   make(map[int64]*job),
	}
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/jobs/", s.handleJob)
	s.mux.HandleFunc("/files/", s.handleFiles)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/scale", s.handleScale)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleHealth answers 503 until the engine can run jobs. In cluster
// mode a lost worker is recoverable — the next job submission repairs
// the topology (standby adoption or redistribution over survivors), and
// a running checkpointed job rolls back and resumes on its own — so
// only a cluster that cannot run anything (every worker gone, no
// standby parked) reports unhealthy. GET /stats carries the
// recovery-event log for the partial-failure picture.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if err := s.be.health(); err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	fmt.Fprintln(w, "ok")
}

// jobRequest is the POST /jobs submission body.
type jobRequest struct {
	// Algorithm is a built-in algorithm name (same set as the CLI).
	Algorithm string `json:"algorithm"`
	// Name is an optional client label (default: the algorithm name).
	Name string `json:"name"`
	// Input is the DFS path of the graph (uploaded via PUT /files/...).
	Input string `json:"input"`
	// Output is the DFS path to dump results to ("" = no dump).
	Output string `json:"output"`
	// Source is the source vertex for sssp/reachability/bfs. A pointer
	// distinguishes "absent" (default 1) from an explicit vertex 0.
	Source *uint64 `json:"source"`
	// Iterations configures pagerank/pathmerge rounds.
	Iterations int `json:"iterations"`
	// Join/GroupBy/Connector/Storage are the plan hints of Section 5.3
	// (same values as the CLI flags); empty = per-algorithm default.
	Join      string `json:"join"`
	GroupBy   string `json:"groupby"`
	Connector string `json:"connector"`
	Storage   string `json:"storage"`
	// CheckpointEvery snapshots the Vertex and Msg relations every N
	// supersteps (Section 5.5); 0 disables checkpointing. In cluster
	// mode this is what makes a job survive a worker crash: recovery
	// rewinds to the last committed checkpoint instead of failing.
	CheckpointEvery int `json:"checkpointEvery"`
	// Epsilon is the residual threshold for deltapagerank (0 = default).
	Epsilon float64 `json:"epsilon"`
	// K is the core order for kcore (0 = default 3).
	K int `json:"k"`
}

// job is one row of the table: a submission followed from the queue to
// its sealed, refreshable result.
type job struct {
	id int64
	// spec/req are the submission as posted and as parsed, kept so the
	// workers, a restarted controller and every delta refresh rebuild
	// the same program.
	spec []byte
	req  jobRequest
	// ctx is the submission's lifetime; DELETE cancels it whether the
	// job is queued, running or waiting to be resumed.
	ctx    context.Context
	cancel context.CancelFunc
	// name is the execution name the backend assigned at admission; the
	// first sealed result version carries it.
	name string

	mu        sync.Mutex
	state     string // queued | running | done | failed | canceled
	errText   string
	stats     *core.JobStats
	opMem     int64
	submitted time.Time
	started   time.Time
	finished  time.Time
	// liveSupersteps tracks progress while the job runs (fed by the
	// coordinator's per-superstep callback), so pollers — and the
	// fault-injection harness timing its kills — see movement before the
	// final stats land.
	liveSupersteps int64
	// deltaVersion is the latest sealed streaming-ingest version, kept
	// here (and persisted) so a restarted controller chains the next
	// refresh from it rather than from the original job name.
	deltaVersion string
	// tracker is the mutation journal and background refresher, opened
	// by the first POST /jobs/{id}/mutations.
	tracker *deltaTracker
}

func (j *job) progress(ss int64) {
	j.mu.Lock()
	j.liveSupersteps = ss
	j.mu.Unlock()
}

// begin marks the job as holding an execution slot, with the
// operator-memory carve it runs under (0 = the nodes' whole budget).
func (j *job) begin(opMem int64) {
	j.mu.Lock()
	j.state, j.started, j.opMem = "running", time.Now(), opMem
	j.mu.Unlock()
}

func (j *job) finish(stats *core.JobStats, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.stats = stats
	switch {
	case err == nil:
		j.state = "done"
	case errors.Is(err, context.Canceled):
		j.state = "canceled"
		j.errText = err.Error()
	default:
		j.state = "failed"
		j.errText = err.Error()
	}
}

func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state != "queued" && j.state != "running"
}

// sealed reports the version queries should read, or the state of a job
// that has no sealed result yet.
func (j *job) sealed() (version, state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.versionLocked(), j.state
}

// versionLocked is the job's current sealed version — the latest delta
// seal if there is one, else the job's own, "" until it is done. A job
// restored as "done" has no stats but its sealed result is still
// queryable, so this goes by the state. The caller holds j.mu.
func (j *job) versionLocked() string {
	switch {
	case j.state != "done":
		return ""
	case j.tracker != nil:
		return j.tracker.currentVersion()
	case j.deltaVersion != "":
		// A restored controller may not have re-opened the tracker yet;
		// the registry's last sealed delta version routes queries until
		// it does.
		return j.deltaVersion
	}
	return j.name
}

// jobView is the status representation returned by the job endpoints.
type jobView struct {
	ID          int64   `json:"id"`
	Name        string  `json:"name"`
	State       string  `json:"state"`
	Error       string  `json:"error,omitempty"`
	OperatorMem int64   `json:"operatorMemBytes,omitempty"`
	QueueWaitMS float64 `json:"queueWaitMs"`
	RunTimeMS   float64 `json:"runTimeMs"`
	Supersteps  int64   `json:"supersteps,omitempty"`
	Messages    int64   `json:"messages,omitempty"`
	Vertices    int64   `json:"vertices,omitempty"`
	// Checkpoints/Recoveries report the job's fault-tolerance activity:
	// committed checkpoints and completed checkpoint-rollback recoveries
	// (cluster mode reports supersteps live while the job runs).
	Checkpoints int `json:"checkpoints,omitempty"`
	Recoveries  int `json:"recoveries,omitempty"`
	// Rebalances counts elastic topology changes (workers joining or
	// draining) the job was carried across without losing a superstep
	// (cluster mode only).
	Rebalances int `json:"rebalances,omitempty"`
	// NetworkBytes counts the payload frame bytes the job's shuffle
	// connectors carried (process-local streams included);
	// NetworkWireBytes counts what actually hit the network sockets
	// (post-compression, headers included — zero on in-process
	// transports) and NetworkWireRawBytes what that same socket traffic
	// would have cost uncompressed. CompressionRatio is raw over wire,
	// e.g. 3.1 means frame compression cut the wire bytes 3.1x; it is
	// 1.0 under -compress=off.
	NetworkBytes        int64   `json:"networkBytes,omitempty"`
	NetworkWireBytes    int64   `json:"networkWireBytes,omitempty"`
	NetworkWireRawBytes int64   `json:"networkWireRawBytes,omitempty"`
	CompressionRatio    float64 `json:"compressionRatio,omitempty"`
	// Version is the sealed result version queries currently serve from;
	// it advances with every completed delta refresh. DeltaSeq is the
	// last journaled mutation sequence folded into that version,
	// Refreshing reports an in-flight delta run, and DeltaError carries
	// the last failed refresh (cleared by the next success).
	Version    string `json:"version,omitempty"`
	DeltaSeq   uint64 `json:"deltaSeq,omitempty"`
	Refreshing bool   `json:"refreshing,omitempty"`
	DeltaError string `json:"deltaError,omitempty"`
}

// view is the job's status as the job endpoints report it.
func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:          j.id,
		Name:        j.name,
		State:       j.state,
		Error:       j.errText,
		OperatorMem: j.opMem,
		Supersteps:  j.liveSupersteps,
	}
	// Whatever clock has not stopped yet runs to now; a job restored
	// from a previous controller's registry has no clocks at all.
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	switch {
	case !j.started.IsZero():
		v.QueueWaitMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
		v.RunTimeMS = float64(end.Sub(j.started)) / float64(time.Millisecond)
	case !j.submitted.IsZero():
		v.QueueWaitMS = float64(end.Sub(j.submitted)) / float64(time.Millisecond)
	}
	if j.stats != nil {
		v.Supersteps = j.stats.Supersteps
		v.Messages = j.stats.TotalMessages
		v.Vertices = j.stats.FinalState.NumVertices
		v.Checkpoints = j.stats.Checkpoints
		v.Recoveries = j.stats.Recoveries
		v.Rebalances = j.stats.Rebalances
		var n networkView
		n.add(j.stats)
		v.NetworkBytes, v.NetworkWireBytes, v.NetworkWireRawBytes = n.PayloadBytes, n.WireBytes, n.WireRawBytes
		v.CompressionRatio = n.ratio()
	}
	v.Version = j.versionLocked()
	if j.tracker != nil {
		v.Version, v.DeltaSeq, v.Refreshing, v.DeltaError = j.tracker.status()
	}
	return v
}

// snapshot lists the table in submission order.
func (s *server) snapshot() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	return jobs
}

// errNoInput marks a submission the engine refuses because its input
// was never uploaded: the client's mistake (400), unlike a full or
// closing engine (503).
var errNoInput = errors.New("input not uploaded")

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		out := []jobView{} // [] rather than null when no jobs exist
		for _, j := range s.snapshot() {
			out = append(out, j.view())
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		var req jobRequest
		if err := json.Unmarshal(body, &req); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		pj, err := buildServeJob(&req)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// The job outlives the HTTP request, so it must not run under
		// the request context.
		ctx, cancel := context.WithCancel(context.Background())
		j := &job{spec: body, req: req, ctx: ctx, cancel: cancel, state: "queued", submitted: time.Now()}
		s.mu.Lock()
		if s.maxQueued > 0 {
			if live := s.liveLocked(); live >= s.maxQueued+s.be.slots() {
				s.mu.Unlock()
				cancel()
				httpError(w, http.StatusServiceUnavailable, "job queue full: %d jobs in flight", live)
				return
			}
		}
		j.id = s.nextID + 1
		run, err := s.be.admit(j, pj, false)
		if err != nil {
			s.mu.Unlock()
			cancel()
			code := http.StatusServiceUnavailable
			if errors.Is(err, errNoInput) {
				code = http.StatusBadRequest
			}
			httpError(w, code, "%v", err)
			return
		}
		s.nextID = j.id
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.mu.Unlock()
		s.saveState()

		go s.run(j, run)
		writeJSON(w, http.StatusAccepted, j.view())
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST /jobs")
	}
}

// liveLocked counts queued and running jobs; the caller holds s.mu.
func (s *server) liveLocked() int {
	live := 0
	for _, j := range s.jobs {
		if !j.terminal() {
			live++
		}
	}
	return live
}

// run carries an admitted job to its terminal state, then trims the
// table: only the newest s.retain finished jobs stay listed, queryable
// and persisted.
func (s *server) run(j *job, run func() (*core.JobStats, error)) {
	j.finish(run())
	j.cancel()
	s.mu.Lock()
	finished := 0
	for _, id := range s.order {
		if s.jobs[id].terminal() {
			finished++
		}
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if finished > s.retain && s.jobs[id].terminal() {
			delete(s.jobs, id)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	s.mu.Unlock()
	s.saveState()
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	idStr, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/jobs/"), "/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad job id %q", idStr)
		return
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %d", id)
		return
	}
	if sub == "mutations" {
		s.handleMutations(w, r, j)
		return
	}
	if sub != "" {
		s.handleJobQuery(w, r, j, sub)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, j.view())
	case http.MethodDelete:
		j.cancel()
		writeJSON(w, http.StatusOK, j.view())
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or DELETE /jobs/{id}")
	}
}

// handleJobQuery serves the always-on query endpoints of one job:
//
//	GET /jobs/{id}/vertices/{vid}        — point read
//	GET /jobs/{id}/topk?by=value&k=N     — global top-k by vertex value
//	GET /jobs/{id}/neighbors/{vid}?hops=K — k-hop neighborhood expansion
//
// Answers come straight from the job's sealed partition B-trees (no
// dump read); a query row's "line" field is byte-identical to the row
// the dump would have written. Only the latest successful run of a job
// name is queryable — a re-submission seals a new result version and
// retires this one once in-flight queries drain — and delta refreshes
// advance the version under the same job id.
func (s *server) handleJobQuery(w http.ResponseWriter, r *http.Request, j *job, sub string) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET /jobs/{id}/{vertices|topk|neighbors}")
		return
	}
	version, state := j.sealed()
	if version == "" {
		httpError(w, http.StatusConflict, "job %d has no queryable result (state %s)", j.id, state)
		return
	}
	writeQueryErr := func(err error) {
		if errors.Is(err, core.ErrNoResult) {
			httpError(w, http.StatusNotFound, "%v", err)
		} else {
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
	}
	switch {
	case strings.HasPrefix(sub, "vertices/"):
		vid, err := strconv.ParseUint(strings.TrimPrefix(sub, "vertices/"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad vertex id %q", strings.TrimPrefix(sub, "vertices/"))
			return
		}
		res, err := s.be.QueryVertex(r.Context(), version, vid)
		if err != nil {
			writeQueryErr(err)
			return
		}
		if !res.Found {
			writeJSON(w, http.StatusNotFound, res)
			return
		}
		writeJSON(w, http.StatusOK, res)
	case sub == "topk":
		if by := r.URL.Query().Get("by"); by != "" && by != "value" {
			httpError(w, http.StatusBadRequest, "bad top-k order %q (only by=value is supported)", by)
			return
		}
		k := 10
		if ks := r.URL.Query().Get("k"); ks != "" {
			n, err := strconv.Atoi(ks)
			if err != nil || n <= 0 {
				httpError(w, http.StatusBadRequest, "bad k %q", ks)
				return
			}
			k = n
		}
		entries, err := s.be.QueryTopK(r.Context(), version, k)
		if err != nil {
			writeQueryErr(err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"k": k, "entries": entries})
	case strings.HasPrefix(sub, "neighbors/"):
		vid, err := strconv.ParseUint(strings.TrimPrefix(sub, "neighbors/"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad vertex id %q", strings.TrimPrefix(sub, "neighbors/"))
			return
		}
		hops := 1
		if hs := r.URL.Query().Get("hops"); hs != "" {
			n, err := strconv.Atoi(hs)
			if err != nil || n <= 0 {
				httpError(w, http.StatusBadRequest, "bad hops %q", hs)
				return
			}
			hops = n
		}
		res, err := s.be.QueryKHop(r.Context(), version, vid, hops)
		if err != nil {
			writeQueryErr(err)
			return
		}
		if !res.Found {
			writeJSON(w, http.StatusNotFound, res)
			return
		}
		writeJSON(w, http.StatusOK, res)
	default:
		httpError(w, http.StatusNotFound, "no such job endpoint %q", sub)
	}
}

// handleMutations is the streaming-ingest endpoint: POST NDJSON
// mutation lines against a completed job. The batch is journaled
// durably (202 + its sequence number), then a background refresher
// clones the sealed partitions, applies every outstanding batch and
// runs delta supersteps until convergence; queries keep answering from
// the pre-delta version until the refreshed result seals. 409 until the
// base job has a sealed result to mutate.
func (s *server) handleMutations(w http.ResponseWriter, r *http.Request, j *job) {
	if version, state := j.sealed(); version == "" {
		httpError(w, http.StatusConflict, "job %d has no sealed result to mutate (state %s)", j.id, state)
		return
	}
	d, err := s.trackerFor(j)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	serveMutations(w, r, d)
}

// trackerFor returns the job's ingest tracker, opening it on first use.
// The opened tracker resumes the version chain from the engine's
// re-adopted catalog when it names a chained version of this job, then
// from the persisted registry, then from the job name — so a refresh
// after a controller restart clones the latest sealed version instead
// of re-deriving everything from the original result.
func (s *server) trackerFor(j *job) (*deltaTracker, error) {
	s.trackerMu.Lock()
	defer s.trackerMu.Unlock()
	j.mu.Lock()
	d, ver := j.tracker, j.name
	if j.deltaVersion != "" {
		ver = j.deltaVersion
	}
	j.mu.Unlock()
	if d != nil {
		return d, nil
	}
	if v, ok := s.be.LatestVersion(j.name); ok && (v == j.name || strings.HasPrefix(v, j.name+"@d")) {
		ver = v
	}
	refresh := func(fromVersion, name string, seq uint64, muts []delta.Mutation) error {
		req := j.req
		pj, err := buildServeJob(&req)
		if err != nil {
			return err
		}
		return s.be.refresh(j.spec, pj, fromVersion, name, seq, muts)
	}
	d, err := newDeltaTracker(s.be.DeltaStore(), fmt.Sprintf("/delta/j%d", j.id), ver, refresh)
	if err != nil {
		return nil, err
	}
	d.onSeal = func(version string, seq uint64) {
		j.mu.Lock()
		j.deltaVersion = version
		j.mu.Unlock()
		s.saveState()
	}
	j.mu.Lock()
	j.tracker = d
	j.mu.Unlock()
	return d, nil
}

// handleFiles moves graph inputs in and job outputs out of the engine.
func (s *server) handleFiles(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/files")
	if path == "" || path == "/" {
		httpError(w, http.StatusBadRequest, "missing file path")
		return
	}
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		if err := s.be.putFile(path, r.Body); err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"path": path})
	case http.MethodGet:
		data, err := s.be.getFile(path)
		if err != nil {
			httpError(w, http.StatusNotFound, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		w.Write(data)
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET, PUT or POST /files/{path}")
	}
}

// scaleView is the GET /scale payload: the live worker→nodes topology
// plus the elasticity log. Scaling out needs no API call — starting
// another `pregelix worker` against the cluster controller triggers the
// rebalance — so POST /scale only carries drain requests.
type scaleView struct {
	Workers  []core.WorkerInfo     `json:"workers"`
	Standbys int                   `json:"standbys"`
	Events   []core.RebalanceEvent `json:"events"`
}

// handleScale serves the elasticity API of an engine that has one: GET
// returns the topology and rebalance log; POST {"drain": "<worker
// addr>"} asks the cluster to gracefully retire a worker (its
// partitions migrate out at the next superstep or job boundary, then it
// is released).
func (s *server) handleScale(w http.ResponseWriter, r *http.Request) {
	view := s.be.scale()
	if view == nil {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, view)
	case http.MethodPost:
		var req struct {
			Drain string `json:"drain"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if req.Drain == "" {
			httpError(w, http.StatusBadRequest, `missing "drain" (scale-out needs no API call: start another pregelix worker)`)
			return
		}
		if err := s.be.Drain(req.Drain); err != nil {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"draining": req.Drain})
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST /scale")
	}
}

// statsView is the GET /stats payload. Jobs, Manager and Network are
// summed over the job table; the rest is the engine's own, so each
// backend fills the one section it has and the other is left out.
type statsView struct {
	*localStats
	*clusterStats
	Jobs struct {
		Total    int `json:"total"`
		Queued   int `json:"queued"`
		Running  int `json:"running"`
		Done     int `json:"done"`
		Failed   int `json:"failed"`
		Canceled int `json:"canceled"`
	} `json:"jobs"`
	Manager struct {
		TotalSupersteps int64   `json:"totalSupersteps"`
		TotalMessages   int64   `json:"totalMessages"`
		TotalRunTimeMS  float64 `json:"totalRunTimeMs"`
	} `json:"manager"`
	// Network aggregates connector traffic over all finished jobs:
	// payload frame bytes vs post-compression socket bytes (wire is zero
	// when every stream stayed in process).
	Network networkView `json:"network"`
}

// localStats is the single-process engine's share of GET /stats:
// admission counters (refreshes hold tickets too) and the statistics
// collector's per-machine snapshot.
type localStats struct {
	Scheduler core.AdmissionStats `json:"scheduler"`
	Queued    int                 `json:"queued"`
	Running   int                 `json:"running"`
	Cluster   core.ClusterStats   `json:"cluster"`
}

// clusterStats is the coordinator's share of GET /stats.
type clusterStats struct {
	Workers int `json:"workers"`
	// Standbys counts parked replacement workers awaiting adoption.
	Standbys int      `json:"standbys"`
	Nodes    []string `json:"nodes"`
	// Recovery is the coordinator's failure-handling log: worker losses
	// and the repairs (standby adoption, node redistribution) that
	// followed.
	Recovery []core.RecoveryEvent `json:"recovery"`
	// Rebalance is the coordinator's elasticity log: workers joining
	// with partitions migrated onto them, graceful drains, refusals.
	Rebalance []core.RebalanceEvent `json:"rebalance"`
	// Adaptive is the runtime-stats feedback log (-adaptive only): join
	// plan switches, hot-partition splits and straggler reliefs, in
	// commit order.
	Adaptive []core.AdaptiveEvent `json:"adaptive"`
}

// networkView is the payload-vs-wire traffic summary of a job or of the
// whole table. CompressionRatio compares the socket traffic against
// what it would have cost uncompressed (1.0 under -compress=off);
// payload bytes also count process-local streams.
type networkView struct {
	PayloadBytes     int64   `json:"payloadBytes"`
	WireBytes        int64   `json:"wireBytes"`
	WireRawBytes     int64   `json:"wireRawBytes"`
	CompressionRatio float64 `json:"compressionRatio,omitempty"`
}

func (n *networkView) add(stats *core.JobStats) {
	for _, ss := range stats.SuperstepStats {
		n.PayloadBytes += ss.NetworkBytes
		n.WireBytes += ss.NetworkWireBytes
		n.WireRawBytes += ss.NetworkWireRawBytes
	}
}

func (n *networkView) ratio() float64 {
	if n.WireBytes == 0 {
		return 0
	}
	return float64(n.WireRawBytes) / float64(n.WireBytes)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	var out statsView
	s.be.engineStats(&out)
	for _, j := range s.snapshot() {
		out.Jobs.Total++
		j.mu.Lock()
		switch j.state {
		case "queued":
			out.Jobs.Queued++
		case "running":
			out.Jobs.Running++
		case "done":
			out.Jobs.Done++
		case "failed":
			out.Jobs.Failed++
		case "canceled":
			out.Jobs.Canceled++
		}
		if j.stats != nil {
			out.Manager.TotalSupersteps += j.stats.Supersteps
			out.Manager.TotalMessages += j.stats.TotalMessages
			out.Manager.TotalRunTimeMS += float64(j.stats.RunDuration) / float64(time.Millisecond)
			out.Network.add(j.stats)
		}
		j.mu.Unlock()
	}
	out.Network.CompressionRatio = out.Network.ratio()
	writeJSON(w, http.StatusOK, out)
}

// buildServeJob maps a submission request onto a built-in algorithm job
// with the requested plan hints: the one job builder of the CLI, serve
// and the workers.
func buildServeJob(req *jobRequest) (*pregel.Job, error) {
	iterations := req.Iterations
	if iterations <= 0 {
		iterations = 10
	}
	source := uint64(1)
	if req.Source != nil {
		source = *req.Source
	}
	var job *pregel.Job
	switch req.Algorithm {
	case "pagerank":
		job = algorithms.NewPageRankJob("pagerank", "", "", iterations)
	case "sssp":
		job = algorithms.NewSSSPJob("sssp", "", "", source)
	case "cc":
		job = algorithms.NewConnectedComponentsJob("cc", "", "")
	case "reachability":
		job = algorithms.NewReachabilityJob("reachability", "", "", source)
	case "bfs":
		job = algorithms.NewBFSTreeJob("bfs", "", "", source)
	case "triangles":
		job = algorithms.NewTriangleCountJob("triangles", "", "")
	case "cliques":
		job = algorithms.NewMaximalCliquesJob("cliques", "", "")
	case "sample":
		job = algorithms.NewRandomWalkSampleJob("sample", "", "", 16, 8)
	case "pathmerge":
		job = algorithms.NewPathMergeJob("pathmerge", "", "", iterations)
	case "deltapagerank":
		job = algorithms.NewDeltaPageRankJob("deltapagerank", "", "", req.Epsilon)
	case "kcore":
		k := req.K
		if k <= 0 {
			k = 3
		}
		job = algorithms.NewKCoreJob("kcore", "", "", k)
	default:
		return nil, fmt.Errorf("unknown algorithm %q", req.Algorithm)
	}
	if req.Input == "" {
		return nil, fmt.Errorf("input DFS path is required (upload via PUT /files/...)")
	}
	if req.Name != "" {
		job.Name = req.Name
	}
	job.InputPath = req.Input
	job.OutputPath = req.Output
	if err := job.ApplyHints(req.Join, req.GroupBy, req.Connector, req.Storage); err != nil {
		return nil, err
	}
	if req.CheckpointEvery < 0 {
		return nil, fmt.Errorf("checkpointEvery must be >= 0")
	}
	job.CheckpointEvery = req.CheckpointEvery
	return job, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
