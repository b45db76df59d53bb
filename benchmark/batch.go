package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/graphgen"
	"pregelix/pregel"
)

// A batch workload sets up (generate, start, write input) repeatedly so
// setup_s can be a median: at least minSetups times, then until
// setupBudget has passed. One set-up takes 2 ms (sssp_chain) to 150 ms
// (pr_spill).
const (
	minSetups   = 5
	setupBudget = time.Second
)

// A run times at least minTimedJobs jobs, more until -seconds have
// passed, and at most maxTimedJobs whatever -seconds asks for.
const (
	minTimedJobs = 3
	maxTimedJobs = 12
)

// maxStolen is the share of the machine's CPU time the hypervisor may
// take away while a job runs (steal, as /proc/stat counts it) before the
// job's times stop measuring this system: the job still counts as an
// operation and its output is checked, but its times are left out while
// minTimedJobs undisturbed jobs can be had, and the run goes on for up to
// stolenStretch x -seconds to have them. On the box this was written on
// steal is 0-3% of a job, except for a minute and a half every ten to
// twenty minutes when it is 10-30% and jobs take 1.3-2.5x as long.
const (
	maxStolen     = 0.05
	stolenStretch = 3
)

// batchRun is the state of one batch workload run.
type batchRun struct {
	cfg  *runConfig
	spec batchSpec
	res  *result
	tr   *tracer
	yard *yardstick
	root int // the workload span

	eng   engine
	graph *graphgen.Graph
	runs  []jobRun // timed jobs, in order
}

// runBatch runs pr_fit, pr_spill, sssp_chain or pr_cluster.
func runBatch(ctx context.Context, cfg *runConfig, dir string, res *result, tr *tracer, yard *yardstick) error {
	spec, ok := batchSpecs[cfg.Workload]
	if !ok {
		return fmt.Errorf("not a batch workload: %s", cfg.Workload)
	}
	b := &batchRun{cfg: cfg, spec: spec, res: res, tr: tr, yard: yard}
	b.root = tr.begin("workload:"+cfg.Workload, 0)
	defer tr.end(b.root)

	// The yardstick is read before and after the set-ups, after the
	// warm-up job and after every job that follows: the box's pace while
	// the run's own clocks ran.
	if err := b.yard.sample(); err != nil {
		return err
	}
	if err := b.setup(ctx, dir); err != nil {
		return err
	}
	defer func() {
		if b.eng != nil {
			b.eng.close()
		}
	}()

	// One discarded warm-up job: the first job in a process runs 15-70%
	// slower than the rest.
	warm := jobOpts{}
	if spec.warmSupersteps != nil {
		warm.maxSupersteps = spec.warmSupersteps(cfg)
	}
	if _, err := b.eng.run(ctx, 0, warm); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	if err := b.yard.sample(); err != nil {
		return err
	}

	before, haveCounters := b.eng.counters()
	if cfg.Traced {
		if err := b.tracedJobs(ctx, dir); err != nil {
			return err
		}
	} else {
		if err := b.timedJobs(ctx); err != nil {
			return err
		}
	}
	after, _ := b.eng.counters()
	// Memory is sampled before the oracle runs in this process.
	rss := peakRSSMB()

	b.jobMetrics()
	if haveCounters {
		b.cacheMetrics(before, after)
	}
	if !cfg.Traced {
		res.set("peak_rss_mb", single(rss))
	}

	// Close the engine before verifying: leases and goroutines are
	// asserted on a stopped system, and the oracle needs the memory.
	err := b.eng.close()
	b.eng = nil
	if err != nil {
		return err
	}

	orc, err := runOracle(spec.job("oracle", ""), b.graph)
	if err != nil {
		return err
	}
	b.verify(orc)
	if cfg.Traced {
		b.oracleMetrics(orc)
		if err := b.drives(ctx, dir, orc); err != nil {
			return err
		}
	}
	return nil
}

// setup times the workload's set-up; the last engine built is kept.
func (b *batchRun) setup(ctx context.Context, dir string) error {
	var samples []float64
	begun := time.Now()
	for i := 0; ; i++ {
		sub := filepath.Join(dir, "engine"+strconv.Itoa(i))
		settleFS(b.cfg.ScratchRoot)
		start := time.Now()
		eng, g, err := startEngine(ctx, b.cfg, b.spec, sub)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		samples = append(samples, time.Since(start).Seconds())
		// setup_s is an end-to-end metric: a traced run sets up once.
		again := !b.cfg.Traced && (len(samples) < minSetups || time.Since(begun) < setupBudget)
		if again {
			if err := eng.close(); err != nil {
				return err
			}
			if err := os.RemoveAll(sub); err != nil {
				return err
			}
			continue
		}
		b.eng, b.graph = eng, g
		break
	}
	if !b.cfg.Traced {
		b.res.set("setup_s", summarize(samples))
	}
	return b.yard.sample()
}

// timedJobs runs the workload's job until at least minTimedJobs
// undisturbed jobs have run and cfg.Seconds have passed, or, while the
// hypervisor keeps disturbing them, stolenStretch times as long.
func (b *batchRun) timedJobs(ctx context.Context) error {
	start := time.Now()
	for n := 1; n <= maxTimedJobs; n++ {
		r, err := b.settledRun(ctx, n, jobOpts{})
		b.res.Attempted++
		if err != nil {
			b.res.fail(1, "job %d: %v", n, err)
			return nil // reported as a failed operation, not a crash
		}
		b.runs = append(b.runs, r)
		if err := b.yard.sample(); err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		if len(undisturbed(b.runs)) >= minTimedJobs && elapsed >= b.cfg.Seconds {
			break
		}
		if n >= minTimedJobs && elapsed >= stolenStretch*b.cfg.Seconds {
			break
		}
	}
	if n := len(b.runs) - len(undisturbed(b.runs)); n > 0 {
		what := "left out of the timings"
		if len(b.timed()) == len(b.runs) {
			what = "timed all the same, for want of undisturbed ones"
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s: the hypervisor took more than %.0f%% of the CPU time during %d of %d jobs: %s\n",
			b.cfg.Workload, maxStolen*100, n, len(b.runs), what)
	}
	return nil
}

// undisturbed lists the jobs the hypervisor let be.
func undisturbed(runs []jobRun) []jobRun {
	var out []jobRun
	for _, r := range runs {
		if r.stolen <= maxStolen {
			out = append(out, r)
		}
	}
	return out
}

// timed lists the runs whose times are reported: the undisturbed ones,
// or every run when there are fewer than least of those.
func timed(runs []jobRun, least int) []jobRun {
	if u := undisturbed(runs); len(u) >= least {
		return u
	}
	return runs
}

func (b *batchRun) timed() []jobRun { return timed(b.runs, minTimedJobs) }

// settledRun runs one job from a flushed file system, so each job
// starts from the same state whatever the jobs before it left behind,
// and notes how much of the machine the hypervisor took meanwhile.
func (b *batchRun) settledRun(ctx context.Context, seq int, o jobOpts) (jobRun, error) {
	settleFS(b.cfg.ScratchRoot)
	steal0, total0 := cpuStolen()
	r, err := b.eng.run(ctx, seq, o)
	r.stolen = stolenSince(steal0, total0)
	return r, err
}

// stolenSince returns the share of the machine's CPU time the hypervisor
// took since cpuStolen read steal0 and total0.
func stolenSince(steal0, total0 int64) float64 {
	steal1, total1 := cpuStolen()
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// cpuStolen reads the machine's cumulative steal time and total CPU time
// (in clock ticks, all CPUs) from /proc/stat; both are 0 where there is
// no such file or line.
func cpuStolen() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time, which
	// follows, is part of user time already.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// tracedJobs runs one plain and one traced job (trace.overhead_ratio is
// their ratio) and, on pr_cluster, the two comparison jobs behind
// core.ckpt_s_each and core.cluster_overhead_ratio.
func (b *batchRun) tracedJobs(ctx context.Context, dir string) error {
	plain, err := b.settledRun(ctx, 1, jobOpts{})
	b.res.Attempted++
	if err != nil {
		b.res.fail(1, "plain job: %v", err)
		return nil
	}
	b.runs = append(b.runs, plain)

	settleFS(b.cfg.ScratchRoot)
	jobSpan := b.tr.begin("job:"+b.cfg.Workload, b.root)
	at := b.tr.now()
	traced, err := b.eng.run(ctx, 2, jobOpts{})
	b.tr.end(jobSpan)
	b.res.Attempted++
	if err != nil {
		b.res.fail(1, "traced job: %v", err)
		return nil
	}
	b.runs = append(b.runs, traced)
	if err := b.yard.sample(); err != nil {
		return err
	}
	spanPhases(b.tr, jobSpan, at, traced)
	b.res.set("trace.overhead_ratio", single(traced.wall.Seconds()/plain.wall.Seconds()))

	if !b.spec.cluster {
		return nil
	}
	// Same job without checkpoints: the difference, per checkpoint, is
	// what one checkpoint costs.
	bare, err := b.settledRun(ctx, 3, jobOpts{noCheckpoint: true})
	b.res.Attempted++
	if err != nil {
		b.res.fail(1, "no-checkpoint job: %v", err)
		return nil
	}
	if n := traced.stats.Checkpoints; n > 0 {
		with := (plain.wall + traced.wall).Seconds() / 2
		b.res.set("core.ckpt_s_each", single((with-bare.wall.Seconds())/float64(n)))
	}
	return b.singleProcessTwin(ctx, filepath.Join(dir, "twin"), bare)
}

// singleProcessTwin runs pr_cluster's graph and job once on a
// single-process runtime in this same (warm) process: the two superstep
// medians differ by what the cluster adds.
func (b *batchRun) singleProcessTwin(ctx context.Context, dir string, bare jobRun) error {
	twin := batchSpecs[wPRFit]
	text, err := graphText(b.graph)
	if err != nil {
		return err
	}
	eng, err := startSingle(dir, wPRFit, twin, text)
	if err != nil {
		return err
	}
	defer eng.close()
	// A new runtime's first job is slow too; two supersteps warm it.
	if _, err := eng.run(ctx, 0, jobOpts{maxSupersteps: 2}); err != nil {
		return fmt.Errorf("twin warm-up job: %w", err)
	}
	settleFS(b.cfg.ScratchRoot)
	r, err := eng.run(ctx, 1, jobOpts{})
	b.res.Attempted++
	if err != nil {
		b.res.fail(1, "single-process twin job: %v", err)
		return nil
	}
	// Compare against the checkpoint-free cluster job, so the ratio is
	// the superstep path alone.
	b.res.set("core.cluster_overhead_ratio",
		single(median(superstepMillis(bare))/median(superstepMillis(r))))
	return nil
}

// spanPhases synthesises a job's phase spans from what JobStats
// reports: load, each superstep, dump. The gaps between them (checkpoint
// writes, commit, barrier) stay the job span's self time.
func spanPhases(tr *tracer, job int, start time.Duration, r jobRun) {
	at := start
	tr.add("load", job, at, at+r.stats.LoadDuration)
	at += r.stats.LoadDuration
	for _, ss := range r.stats.SuperstepStats {
		tr.add(fmt.Sprintf("superstep %d (%s)", ss.Superstep, ss.Plan), job, at, at+ss.Duration)
		at += ss.Duration
	}
	end := start + r.wall
	tr.add("dump", job, end-r.stats.DumpDuration, end)
}

func superstepMillis(r jobRun) []float64 {
	out := make([]float64, 0, len(r.stats.SuperstepStats))
	for _, ss := range r.stats.SuperstepStats {
		out = append(out, ss.Duration.Seconds()*1000)
	}
	return out
}

func ioBytes(s *core.JobStats) int64 {
	var n int64
	for _, ss := range s.SuperstepStats {
		n += ss.IOBytes
	}
	return n
}

// jobMetrics derives the end-to-end metrics and core's counters from
// the timed jobs.
func (b *batchRun) jobMetrics() {
	if len(b.runs) == 0 {
		return
	}
	res := b.res
	var walls, loads, dumps, rates, ios, steps []float64
	for _, r := range b.timed() {
		walls = append(walls, r.wall.Seconds())
		loads = append(loads, r.stats.LoadDuration.Seconds())
		dumps = append(dumps, r.stats.DumpDuration.Seconds())
		rates = append(rates, float64(r.stats.TotalMessages)/r.stats.RunDuration.Seconds()/1e6)
		ios = append(ios, float64(ioBytes(r.stats))/1e6)
		steps = append(steps, superstepMillis(r)...)
	}
	if !b.cfg.Traced {
		res.set("job_s", summarize(walls))
		res.set("mmsgs_per_s", summarize(rates))
		res.set("io_mb", summarize(ios))
	}
	res.set("load_s", summarize(loads))
	res.set("superstep_ms_p50", summarize(steps))
	if b.cfg.Workload == wSSSPChain {
		res.set("superstep_ms_p99", summarizeTail(steps, 99))
	}

	last := b.runs[len(b.runs)-1].stats
	v := float64(last.FinalState.NumVertices)
	res.set("core.load_ns_per_vertex", single(median(loads)*1e9/v))
	res.set("core.dump_ns_per_vertex", single(median(dumps)*1e9/v))
	res.set("core.superstep_floor_ms", single(percentile(steps, 0)))
	res.set("core.checkpoints", single(float64(last.Checkpoints)))
	jobCounters(res, last, b.spec.cluster)
}

// jobCounters reports the counters every workload reads off one job's
// stats: plan choices, combined messages and, on a cluster, how many
// bytes hit the sockets per payload byte shipped.
func jobCounters(res *result, stats *core.JobStats, cluster bool) {
	var loj, foj float64
	var payload, wire int64
	for _, ss := range stats.SuperstepStats {
		if ss.Plan == pregel.LeftOuterJoin.String() {
			loj++
		} else {
			foj++
		}
		payload += ss.NetworkBytes
		wire += ss.NetworkWireBytes
	}
	res.set("core.plan_loj_supersteps", single(loj))
	res.set("core.plan_foj_supersteps", single(foj))
	res.set("core.msgs_total", single(float64(stats.TotalMessages)))
	if cluster && payload > 0 {
		res.set("wire.bytes_per_payload_byte", single(float64(wire)/float64(payload)))
	}
}

// cacheMetrics reports the buffer cache's exact counts per timed job.
func (b *batchRun) cacheMetrics(before, after cacheCounters) {
	n := float64(len(b.runs))
	if n == 0 {
		return
	}
	hits := float64(after.hits - before.hits)
	misses := float64(after.misses - before.misses)
	if hits+misses > 0 {
		b.res.set("storage.cache_hit_ratio", single(hits/(hits+misses)))
	}
	b.res.set("storage.cache_evictions", single(float64(after.evictions-before.evictions)/n))
	b.res.set("storage.cache_writebacks", single(float64(after.writebacks-before.writebacks)/n))
	b.res.set("memory.node_ram_peak_mb", single(float64(after.ramPeak)/1e6))
}

// verify compares every timed job's dump with the oracle.
func (b *batchRun) verify(orc *oracle) {
	for i, r := range b.runs {
		d, err := parseDump(r.out)
		if err == nil {
			err = compareValues(d.values, orc.values, b.spec.tol)
		}
		if err != nil {
			b.res.fail(1, "job %d output differs from internal/reference: %v", i+1, err)
		}
	}
}

// oracleMetrics reports pregel's floor for job_s.
func (b *batchRun) oracleMetrics(orc *oracle) {
	if len(b.runs) == 0 {
		return
	}
	var walls []float64
	for _, r := range b.timed() {
		walls = append(walls, r.wall.Seconds())
	}
	b.res.set("pregel.oracle_run_s", single(orc.runTime.Seconds()))
	b.res.set("pregel.oracle_ratio", single(median(walls)/orc.runTime.Seconds()))
}

// peakRSSMB is this process's resident-set high-water mark (ru_maxrss),
// in MB of 10^6 bytes. Each workload runs in its own process, so it is
// the workload's.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
