package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/delta"
	"pregelix/internal/graphgen"
)

// serve_mix op counts per client and round at scale 1 (phase A) and the
// phase B shape. Two closed-loop clients: each sends its next request
// when the previous one has returned. Phase A is serveRounds rounds of
// the same op mix, 10000 point reads, 150 batches, 20 top-k and 20 k-hop
// per client in all, so that its time can be a median over rounds: the
// clients start each round together.
const (
	serveClients     = 2
	serveRounds      = 10
	servePointReads  = 1000
	serveBatches     = 15
	serveBatchSize   = 64
	serveTopKs       = 2
	serveTopK        = 10
	serveKHops       = 2
	serveKHopDepth   = 3
	serveRefreshes   = 3
	serveChurn       = 0.01 // edge additions per refresh, as a share of |E|
	serveBaseJobName = "dpr"
	// serveThink paces phase B's reader: a point read each millisecond
	// keeps reads beside the refresh without taking one of the two
	// cores from it.
	serveThink = time.Millisecond
	// serveGapLimit is how many phase B reads in a row may be refused with
	// ErrNoResult before the refusals count as a failed operation: the gap
	// around a seal closes within a few reads, one that stays open is a
	// version lost.
	serveGapLimit = 50
	// yardRounds is how many phase A rounds pass between two readings of
	// the yardstick.
	yardRounds = 5
	// minTimedRefreshes is how many refreshes the hypervisor must have let
	// be for the disturbed ones to be left out of the timings.
	minTimedRefreshes = 2
)

type opKind uint8

const (
	opPoint opKind = iota
	opBatch
	opTopK
	opKHop
)

// serveOp is one scheduled request of a phase A client.
type serveOp struct {
	kind opKind
	vids []uint64 // the vid (point, k-hop source) or the batch
}

// serveRun is the state of one serve_mix run.
type serveRun struct {
	cfg  *runConfig
	res  *result
	tr   *tracer
	yard *yardstick
	root int // the workload span

	cl    *cluster
	graph *graphgen.Graph // what the base job ran on
	ids   []uint64

	versions map[string]*dump // every version sealed -> its dump
	// graphs is every version sealed -> the graph it should describe: the
	// oracle's input for that version.
	graphs  map[string]*graphgen.Graph
	current string

	baseStats *core.JobStats
	baseWall  time.Duration
	refreshes []jobRun
}

// phaseAStats is what one pass over phase A measured.
type phaseAStats struct {
	// rounds holds each round's wall time and stolen share; there is no
	// job behind them.
	rounds   []jobRun
	ops      int64 // of one round, both clients
	pointUS  []float64
	topkMS   []float64
	hitRatio float64
}

// roundS is the median wall time of a round, over the rounds the
// hypervisor let be (while there are minTimedJobs of those).
func (a phaseAStats) roundS() float64 {
	var walls []float64
	for _, r := range timed(a.rounds, minTimedJobs) {
		walls = append(walls, r.wall.Seconds())
	}
	return median(walls)
}

// wallS is what phase A takes at the median round's pace.
func (a phaseAStats) wallS() float64 { return float64(len(a.rounds)) * a.roundS() }

// runServeMix runs the serve_mix workload.
func runServeMix(ctx context.Context, cfg *runConfig, dir string, res *result, tr *tracer, yard *yardstick) error {
	s := &serveRun{cfg: cfg, res: res, tr: tr, yard: yard, versions: make(map[string]*dump), graphs: make(map[string]*graphgen.Graph)}
	s.root = tr.begin("workload:"+cfg.Workload, 0)
	root := s.root
	defer tr.end(root)

	// Set-up: graph, cluster, input, the base job, its seal. It takes
	// seconds, so it runs once per run. The yardstick is read before and
	// after it, after every yardRounds rounds of phase A and after every
	// refresh.
	if err := yard.sample(); err != nil {
		return err
	}
	start := time.Now()
	if err := s.setup(ctx, dir); err != nil {
		return err
	}
	defer func() {
		if s.cl != nil {
			s.cl.close()
		}
	}()
	if !cfg.Traced {
		res.set("setup_s", single(time.Since(start).Seconds()))
	}
	if err := yard.sample(); err != nil {
		return err
	}
	settleFS(cfg.ScratchRoot)

	schedules, want := s.schedule()

	// Phase A, read-only. A traced run does it twice: once plain, once
	// with spans, and trace.overhead_ratio is the ratio of the two.
	a, err := s.phaseA(ctx, schedules, want, nil, 0)
	if err != nil {
		return err
	}
	if cfg.Traced {
		span := tr.begin("phase A (traced)", root)
		traced, err := s.phaseA(ctx, schedules, want, tr, span)
		tr.end(span)
		if err != nil {
			return err
		}
		res.set("trace.overhead_ratio", single(traced.wallS()/a.wallS()))
	}

	// Phase B: chained refreshes beside point reads.
	span := tr.begin("phase B", root)
	err = s.phaseB(ctx, span)
	tr.end(span)
	if err != nil {
		return err
	}
	rss := peakRSSMB()
	s.metrics(a, rss)

	err = s.cl.close()
	s.cl = nil
	if err != nil {
		return err
	}
	orc, err := s.verifyJobs()
	if err != nil {
		return err
	}
	if cfg.Traced {
		res.set("pregel.oracle_run_s", single(orc.runTime.Seconds()))
		res.set("pregel.oracle_ratio", single(s.baseWall.Seconds()/orc.runTime.Seconds()))
		if err := serveDrives(ctx, s, dir, orc); err != nil {
			return err
		}
	}
	return nil
}

func (s *serveRun) setup(ctx context.Context, dir string) error {
	s.graph = webmapFit(s.cfg)
	s.ids = s.graph.VertexIDs()
	text, err := graphText(s.graph)
	if err != nil {
		return err
	}
	cl, err := startCluster(ctx, dir, ramFit)
	if err != nil {
		return err
	}
	s.cl = cl
	if err := cl.coord.PutFile(ctx, inputPath, text); err != nil {
		return err
	}
	spec := clusterJobSpec{Algorithm: "deltapagerank"}
	job, err := buildClusterJob(spec.raw())
	if err != nil {
		return err
	}
	version := serveBaseJobName + "@j1"
	start := time.Now()
	stats, out, err := cl.coord.RunJob(ctx, core.DistSubmission{
		Name: version, Spec: spec.raw(), Job: job, InputPath: inputPath, WantOutput: true,
	})
	if err != nil {
		return fmt.Errorf("base job: %w", err)
	}
	s.baseWall, s.baseStats = time.Since(start), stats
	d, err := parseDump(out)
	if err != nil {
		return err
	}
	s.versions[version] = d
	s.graphs[version] = s.graph
	s.current = version
	return nil
}

// schedule draws each client's phase A requests from the seed, round by
// round (schedules[round][client]), each round shuffled so point probes
// and full scans interleave, and computes the expected answers that do
// not come straight from the dump.
func (s *serveRun) schedule() ([][][]serveOp, *serveExpect) {
	cfg := s.cfg
	schedules := make([][][]serveOp, serveRounds)
	for r := range schedules {
		schedules[r] = make([][]serveOp, serveClients)
	}
	want := &serveExpect{khop: make(map[uint64][]int)}
	for c := 0; c < serveClients; c++ {
		rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(c)))
		pick := func() uint64 { return s.ids[rng.Intn(len(s.ids))] }
		for r := range schedules {
			var ops []serveOp
			for i := 0; i < cfg.scaled(servePointReads, 2); i++ {
				ops = append(ops, serveOp{kind: opPoint, vids: []uint64{pick()}})
			}
			for i := 0; i < cfg.scaled(serveBatches, 1); i++ {
				batch := make([]uint64, serveBatchSize)
				for k := range batch {
					batch[k] = pick()
				}
				ops = append(ops, serveOp{kind: opBatch, vids: batch})
			}
			for i := 0; i < cfg.scaled(serveTopKs, 1); i++ {
				ops = append(ops, serveOp{kind: opTopK})
			}
			for i := 0; i < cfg.scaled(serveKHops, 1); i++ {
				src := pick()
				want.khop[src] = khopLayerSizes(s.graph, src, serveKHopDepth)
				ops = append(ops, serveOp{kind: opKHop, vids: []uint64{src}})
			}
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			schedules[r][c] = ops
		}
	}
	want.topk = topScores(s.versions[s.current], serveTopK)
	return schedules, want
}

// serveExpect holds phase A's expected answers beyond the dump itself.
type serveExpect struct {
	topk []float64        // the k highest scores, descending
	khop map[uint64][]int // source -> size of each BFS layer
}

// topScores returns the k highest values of a dump, descending.
func topScores(d *dump, k int) []float64 {
	scores := make([]float64, 0, len(d.values))
	for _, v := range d.values {
		f, err := strconv.ParseFloat(v, 64)
		if err == nil {
			scores = append(scores, f)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	if len(scores) > k {
		scores = scores[:k]
	}
	return scores
}

// khopLayerSizes is a plain BFS over the generated graph: how many
// vertices are first reached at each hop from src.
func khopLayerSizes(g *graphgen.Graph, src uint64, hops int) []int {
	visited := map[uint64]bool{src: true}
	frontier := []uint64{src}
	var sizes []int
	for h := 0; h < hops && len(frontier) > 0; h++ {
		var next []uint64
		for _, v := range frontier {
			for _, d := range g.Adj[v] {
				if !visited[d] {
					visited[d] = true
					next = append(next, d)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		sizes = append(sizes, len(next))
		frontier = next
	}
	return sizes
}

// phaseA runs the rounds of schedules against the current version, each
// round's clients side by side, and checks every answer. With a tracer,
// each non-point request gets a span under parent.
func (s *serveRun) phaseA(ctx context.Context, schedules [][][]serveOp, want *serveExpect, tr *tracer, parent int) (phaseAStats, error) {
	coord := s.cl.coord
	version := s.current
	d := s.versions[version]
	hits0, misses0 := coord.QueryCacheStats()

	type clientOut struct {
		pointUS, topkMS []float64
		failed          int64
		firstBad        string
	}
	outs := make([]clientOut, serveClients)
	runOps := func(c int, ops []serveOp) {
		out := &outs[c]
		client := tr.begin(fmt.Sprintf("client %d", c), parent)
		defer tr.end(client)
		for _, op := range ops {
			var err error
			switch op.kind {
			case opPoint:
				t := time.Now()
				r, qerr := coord.QueryVertex(ctx, version, op.vids[0])
				out.pointUS = append(out.pointUS, float64(time.Since(t).Nanoseconds())/1e3)
				err = qerr
				if err == nil {
					err = checkPoint(d, r)
				}
			case opBatch:
				rs, qerr := coord.QueryVertices(ctx, version, op.vids)
				err = qerr
				for i := 0; err == nil && i < len(rs); i++ {
					err = checkPoint(d, rs[i])
				}
				if err == nil && len(rs) != len(op.vids) {
					err = fmt.Errorf("batch of %d returned %d answers", len(op.vids), len(rs))
				}
			case opTopK:
				id := tr.begin("QueryTopK", client)
				t := time.Now()
				es, qerr := coord.QueryTopK(ctx, version, serveTopK)
				out.topkMS = append(out.topkMS, time.Since(t).Seconds()*1e3)
				tr.end(id)
				err = qerr
				if err == nil {
					err = checkTopK(d, es, want.topk)
				}
			case opKHop:
				id := tr.begin("QueryKHop", client)
				kh, qerr := coord.QueryKHop(ctx, version, op.vids[0], serveKHopDepth)
				tr.end(id)
				err = qerr
				if err == nil {
					err = checkKHop(kh, want.khop[op.vids[0]])
				}
			}
			if err != nil {
				if out.failed == 0 {
					out.firstBad = err.Error()
				}
				out.failed++
			}
		}
	}

	var st phaseAStats
	for n, round := range schedules {
		var wg sync.WaitGroup
		steal0, total0 := cpuStolen()
		start := time.Now()
		for c, ops := range round {
			wg.Add(1)
			go func(c int, ops []serveOp) {
				defer wg.Done()
				runOps(c, ops)
			}(c, ops)
		}
		wg.Wait()
		st.rounds = append(st.rounds, jobRun{wall: time.Since(start), stolen: stolenSince(steal0, total0)})
		st.ops = 0 // every round has as many
		for _, ops := range round {
			st.ops += int64(len(ops))
		}
		s.res.Attempted += st.ops
		if (n+1)%yardRounds == 0 {
			if err := s.yard.sample(); err != nil {
				return st, err
			}
		}
	}
	for c, out := range outs {
		st.pointUS = append(st.pointUS, out.pointUS...)
		st.topkMS = append(st.topkMS, out.topkMS...)
		if out.failed > 0 {
			s.res.fail(out.failed, "phase A client %d: %d requests failed, first: %s", c, out.failed, out.firstBad)
		}
	}
	hits1, misses1 := coord.QueryCacheStats()
	if n := (hits1 - hits0) + (misses1 - misses0); n > 0 {
		st.hitRatio = float64(hits1-hits0) / float64(n)
	}
	return st, nil
}

func checkPoint(d *dump, r core.VertexQueryResult) error {
	want, ok := d.lines[r.Vid]
	switch {
	case !ok:
		return fmt.Errorf("read of vertex %d: not in the dump", r.Vid)
	case !r.Found:
		return fmt.Errorf("read of vertex %d: not found", r.Vid)
	case r.Line != want:
		return fmt.Errorf("read of vertex %d: %q, dump has %q", r.Vid, r.Line, want)
	}
	return nil
}

func checkTopK(d *dump, got []core.TopKEntry, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("top-k returned %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if d.values[e.Vid] != e.Value {
			return fmt.Errorf("top-k entry %d: vertex %d value %q, dump has %q", i, e.Vid, e.Value, d.values[e.Vid])
		}
		if e.Score != want[i] {
			return fmt.Errorf("top-k entry %d: score %v, dump's rank-%d score is %v", i, e.Score, i+1, want[i])
		}
	}
	return nil
}

func checkKHop(got *core.KHopResult, want []int) error {
	if !got.Found {
		return fmt.Errorf("k-hop from %d: source not found", got.Source)
	}
	if len(got.Layers) != len(want) {
		return fmt.Errorf("k-hop from %d: %d layers, want %d", got.Source, len(got.Layers), len(want))
	}
	for i, l := range got.Layers {
		if len(l) != want[i] {
			return fmt.Errorf("k-hop from %d: layer %d has %d vertices, want %d", got.Source, i+1, len(l), want[i])
		}
	}
	return nil
}

// phaseRead is one phase B point read, checked once its version's dump
// is known.
type phaseRead struct {
	version string
	res     core.VertexQueryResult
}

// isNoResult reports whether a read was refused because its version is
// not (or no longer) served. The coordinator's own refusal wraps
// core.ErrNoResult; a worker's crosses the control plane as text (wire's
// Envelope.Error is a string), so that one can only be matched by text.
func isNoResult(err error) bool {
	return errors.Is(err, core.ErrNoResult) || strings.Contains(err.Error(), core.ErrNoResult.Error())
}

// phaseB chains serveRefreshes delta refreshes, each adding serveChurn
// of the edges, while one client keeps reading the latest version.
func (s *serveRun) phaseB(ctx context.Context, parent int) error {
	coord := s.cl.coord
	stop := make(chan struct{})
	var reads []phaseRead
	var readErrs []string
	var gapReads, errored int64
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		rng := rand.New(rand.NewSource(s.cfg.Seed*1000 + 99))
		gapRun := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(serveThink):
			}
			vid := s.ids[rng.Intn(len(s.ids))]
			version, _ := coord.LatestVersion(serveBaseJobName)
			r, err := coord.QueryVertex(ctx, version, vid)
			switch {
			case err == nil:
				gapRun = 0
				reads = append(reads, phaseRead{version: version, res: r})
			case isNoResult(err):
				// Around a seal the workers have already retired the old
				// version while the coordinator still names it latest (and
				// a version can be superseded between resolving and
				// reading). Nothing stale is served, but the read is
				// refused: every such read is counted, as
				// core.seal_gap_reads.
				gapReads++
				if gapRun++; gapRun == serveGapLimit {
					readErrs = append(readErrs, fmt.Sprintf("%d reads in a row refused, the last of vertex %d at %s: %v", gapRun, vid, version, err))
				}
			default:
				errored++
				readErrs = append(readErrs, fmt.Sprintf("read of vertex %d at %s: %v", vid, version, err))
			}
		}
	}()

	// The base graph stays as the base job's oracle needs it; additions
	// go to a copy whose touched adjacency lists are reallocated, so each
	// version's graph is a copy of the map alone.
	g := copyGraph(s.graph)
	rng := rand.New(rand.NewSource(s.cfg.Seed*1000 + 7))
	spec := clusterJobSpec{Algorithm: "deltapagerank"}
	var refreshErr error
	for r := 1; r <= serveRefreshes; r++ {
		muts := addEdges(g, s.ids, int(serveChurn*float64(s.graph.NumEdges())), rng)
		job, err := buildClusterJob(spec.raw())
		if err != nil {
			refreshErr = err
			break
		}
		name := fmt.Sprintf("%s@j1@d%d", serveBaseJobName, r)
		settleFS(s.cfg.ScratchRoot)
		span := s.tr.begin("DeltaRefresh "+name, parent)
		at := s.tr.now()
		steal0, total0 := cpuStolen()
		start := time.Now()
		stats, err := coord.DeltaRefresh(ctx, core.DeltaSubmission{
			Version: s.current, Name: name, Spec: spec.raw(), Job: job, Muts: muts,
		})
		run := jobRun{wall: time.Since(start), stats: stats, stolen: stolenSince(steal0, total0)}
		s.tr.end(span)
		s.res.Attempted++
		if err != nil {
			s.res.fail(1, "refresh %d: %v", r, err)
			break
		}
		spanPhases(s.tr, span, at, run)
		s.refreshes = append(s.refreshes, run)
		if refreshErr = s.yard.sample(); refreshErr != nil {
			break
		}
		// The new version's "dump": every vertex read back from it.
		d, err := s.readAll(ctx, name)
		if err != nil {
			refreshErr = err
			break
		}
		s.versions[name] = d
		s.graphs[name] = copyGraph(g)
		s.current = name
	}
	close(stop)
	readerDone.Wait()
	if refreshErr != nil {
		return refreshErr
	}

	s.res.set("core.seal_gap_reads", single(float64(gapReads)))
	s.res.Attempted += int64(len(reads)) + gapReads + errored
	for _, e := range readErrs {
		s.res.fail(1, "%s", e)
	}
	for _, rd := range reads {
		d := s.versions[rd.version]
		if d == nil {
			s.res.fail(1, "read of vertex %d served from unknown version %q", rd.res.Vid, rd.version)
			continue
		}
		if err := checkPoint(d, rd.res); err != nil {
			s.res.fail(1, "at %s: %v", rd.version, err)
		}
	}
	return nil
}

// copyGraph copies g's adjacency map; the lists themselves are shared.
func copyGraph(g *graphgen.Graph) *graphgen.Graph {
	c := &graphgen.Graph{Adj: make(map[uint64][]uint64, len(g.Adj))}
	for id, adj := range g.Adj {
		c.Adj[id] = adj
	}
	return c
}

// addEdges draws n (at least one) absent directed edges between ids,
// adds them to g, reallocating every adjacency list it touches, and
// returns them as mutations.
func addEdges(g *graphgen.Graph, ids []uint64, n int, rng *rand.Rand) []delta.Mutation {
	if n < 1 {
		n = 1
	}
	muts := make([]delta.Mutation, 0, n)
	for len(muts) < n {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		old := g.Adj[a]
		if a == b || hasEdge(old, b) {
			continue
		}
		adj := make([]uint64, 0, len(old)+1)
		adj = append(append(adj, old...), b)
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
		g.Adj[a] = adj
		muts = append(muts, delta.Mutation{Op: delta.OpAddEdge, ID: a, Dst: b})
	}
	return muts
}

func hasEdge(sorted []uint64, d uint64) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= d })
	return i < len(sorted) && sorted[i] == d
}

// readAll reads every vertex of a sealed version back through the query
// tier.
func (s *serveRun) readAll(ctx context.Context, version string) (*dump, error) {
	d := &dump{values: make(map[uint64]string, len(s.ids)), lines: make(map[uint64]string, len(s.ids))}
	const chunk = 4096
	for at := 0; at < len(s.ids); at += chunk {
		end := min(at+chunk, len(s.ids))
		rs, err := s.cl.coord.QueryVertices(ctx, version, s.ids[at:end])
		if err != nil {
			return nil, fmt.Errorf("reading %s back: %w", version, err)
		}
		for _, r := range rs {
			if !r.Found {
				return nil, fmt.Errorf("reading %s back: vertex %d missing", version, r.Vid)
			}
			d.values[r.Vid] = r.Value
			d.lines[r.Vid] = r.Line
		}
	}
	return d, nil
}

// metrics reports what phases A and B measured. On serve_mix the "job"
// of the end-to-end set is the fixed op mix, phase A plus the refreshes,
// each at the pace of its median unit (round, refresh) so that a unit the
// box disturbed does not decide the figure; supersteps, messages and I/O
// are the refresh jobs'.
func (s *serveRun) metrics(a phaseAStats, rss float64) {
	res := s.res
	var steps []float64
	var supersteps, msgs, io int64
	for _, r := range s.refreshes {
		io += ioBytes(r.stats)
		steps = append(steps, superstepMillis(r)...)
		supersteps += r.stats.Supersteps
		msgs += r.stats.TotalMessages
	}
	// How deep one refresh's tail of small supersteps runs depends on
	// which edges the seed drew, and each refresh of the chain has a little
	// more to do than the one before: the median is the middle one's.
	var refreshS, rates []float64
	for _, r := range timed(s.refreshes, minTimedRefreshes) {
		refreshS = append(refreshS, r.wall.Seconds())
		rates = append(rates, float64(r.stats.TotalMessages)/r.stats.RunDuration.Seconds()/1e6)
	}
	if len(s.refreshes) > 0 {
		n := float64(len(s.refreshes))
		if !s.cfg.Traced {
			res.set("job_s", single(a.wallS()+n*median(refreshS)))
			res.set("mmsgs_per_s", summarize(rates))
			res.set("io_mb", single(float64(io)/1e6))
			res.set("peak_rss_mb", single(rss))
		}
		res.set("refresh_s", summarize(refreshS))
		res.set("core.refresh_supersteps", single(float64(supersteps)/n))
		res.set("core.refresh_msgs", single(float64(msgs)/n))
		res.set("core.superstep_floor_ms", single(percentile(steps, 0)))
	}
	left := len(a.rounds) - len(timed(a.rounds, minTimedJobs))
	if left += len(s.refreshes) - len(refreshS); left > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: the hypervisor took more than %.0f%% of the CPU time during %d of %d rounds and refreshes: left out of the timings\n",
			s.cfg.Workload, maxStolen*100, left, len(a.rounds)+len(s.refreshes))
	}
	res.set("query_p50_us", summarize(a.pointUS))
	res.set("query_p99_us", summarizeTail(a.pointUS, 99))
	res.set("query_qps", single(float64(a.ops)/a.roundS()))
	res.set("topk_ms_p50", summarize(a.topkMS))
	res.set("core.query_cache_hit_ratio", single(a.hitRatio))

	res.set("core.load_ns_per_vertex", single(float64(s.baseStats.LoadDuration.Nanoseconds())/float64(len(s.ids))))
	jobCounters(res, s.baseStats, true)
}

// verifyJobs checks every version sealed, the base job's dump and each
// refresh's read-back, against the oracle run on the graph that version
// should describe; the reads a version served were checked against the
// same read-back. The oracles run simNodes at a time: the cluster is
// closed by now and the cores are free. It returns the base job's oracle.
func (s *serveRun) verifyJobs() (*oracle, error) {
	s.res.Attempted++ // the base job; each refresh was counted when it ran
	versions := make([]string, 0, len(s.versions))
	for v := range s.versions {
		versions = append(versions, v)
	}
	sort.Strings(versions) // dpr@j1, dpr@j1@d1, ...: the base job first
	oracles := make([]*oracle, len(versions))
	errs := make([]error, len(versions))
	slots := make(chan struct{}, simNodes)
	var wg sync.WaitGroup
	for i, v := range versions {
		wg.Add(1)
		go func(i int, g *graphgen.Graph) {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			// A job of its own: runOracle wraps the job's program.
			job, err := buildClusterJob(clusterJobSpec{Algorithm: "deltapagerank"}.raw())
			if err == nil {
				oracles[i], err = runOracle(job, g)
			}
			errs[i] = err
		}(i, s.graphs[v])
	}
	wg.Wait()
	for i, v := range versions {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if err := compareValues(s.versions[v].values, oracles[i].values, tolDeltaPageRank); err != nil {
			s.res.fail(1, "%s differs from internal/reference on the graph it should describe: %v", v, err)
		}
	}
	return oracles[0], nil
}
