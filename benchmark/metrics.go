package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// The five workloads. Later issues cite these names.
const (
	wPRFit     = "pr_fit"
	wPRSpill   = "pr_spill"
	wSSSPChain = "sssp_chain"
	wPRCluster = "pr_cluster"
	wServeMix  = "serve_mix"
)

var workloadNames = []string{wPRFit, wPRSpill, wSSSPChain, wPRCluster, wServeMix}

// workloadWhy is the one-line reason each workload exists, as
// BENCHMARK.json records it.
var workloadWhy = map[string]string{
	wPRFit:     "PageRank, 30k-vertex Webmap, everything cached: operators, tuple and hyracks do the work, storage only hits (the in-memory gap rung)",
	wPRSpill:   "PageRank, 60k-vertex Webmap on 2x1 MiB RAM: B-tree pages evict and the group-by spills, so storage and run files work here only",
	wSSSPChain: "SSSP (left outer join) down a 4000-vertex chain: 4000 near-empty supersteps, so per-superstep fixed cost is all of the time",
	wPRCluster: "the pr_fit job on a coordinator + 2 workers over loopback TCP with checkpoints every 3: isolates wire, control plane, commit",
	wServeMix:  "sealed deltapagerank result served to 2 closed-loop clients (point, batch, top-k, k-hop), then 3 chained 1% delta refreshes beside reads",
}

// Workload groups a metric can apply to.
var (
	onAll     []string // nil = every workload
	onBatch   = []string{wPRFit, wPRSpill, wSSSPChain, wPRCluster}
	onSingle  = []string{wPRFit, wPRSpill, wSSSPChain}
	onCluster = []string{wPRCluster, wServeMix}
	onServe   = []string{wServeMix}
)

// metricDef is one named metric. EndToEnd metrics are the ones every
// workload reports from the untraced run, and the driver bounds; the
// rest are the per-layer set the traced run reports.
//
// Bound is the only place a bound is written down. For an end-to-end
// metric it is BENCHMARK.json's: how far the metric may worsen from one
// commit to the next, and (the driver checks this too) at least the
// spread of ten runs of one commit on ten seeds. `repeat` holds two sets
// of runs of one commit and one seed to the same Bound, per-layer
// metrics with a Bound included, except that a counter it holds to
// exactBound: a counter moves with the seed's input, not with the box.
type metricDef struct {
	Name     string
	Unit     string
	Better   string // "lower" or "higher"
	Bound    float64
	EndToEnd bool
	On       []string // workloads it applies to; nil = all
	// Counter marks a metric the program counts and the clock does not
	// touch.
	Counter bool
}

// exactBound is how far a counter may move between two sets of runs of
// one commit and one seed.
const exactBound = 0.02

func (m metricDef) appliesTo(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// notApplicable is what a per-layer metric reports on a workload it does
// not apply to: the contract wants every per-layer metric on every
// traced run, and 0 would read as a measurement.
const notApplicable = -1

var catalogue = []metricDef{
	// End to end: what a user of the system sees. Every workload reports
	// all of them; on serve_mix the "job" is the fixed op mix (phase A +
	// the refreshes) and messages and I/O are its refresh jobs'. Each
	// bound is three times the widest spread ten runs of one commit showed
	// on this box (see README.md, "Noise"), capped at the contract's 0.25:
	// timings, which are reported at the yardstick's pace (yardstick.go),
	// spread by 6-18% (as wall-clock times by up to 40% in a bad spell),
	// peak_rss_mb by up to 10% (sssp_chain's 22 MB), io_mb by 6%
	// (serve_mix, whose refreshes run as deep as the seed's added edges
	// send them; under 1% elsewhere).
	{"setup_s", "s", "lower", 0.25, true, onAll, false},
	{"job_s", "s", "lower", 0.25, true, onAll, false},
	{"mmsgs_per_s", "Mmsg/s", "higher", 0.25, true, onAll, false},
	{"io_mb", "MB", "lower", 0.20, true, onAll, true},
	{"peak_rss_mb", "MB", "lower", 0.25, true, onAll, false},

	// User-visible too, but they apply to some workloads only (or are 0
	// when all is well), which the driver's end-to-end set cannot hold;
	// `repeat` still checks them against these bounds.
	{"load_s", "s", "lower", 0.25, false, onBatch, false},
	{"superstep_ms_p50", "ms", "lower", 0.25, false, onBatch, false},
	{"superstep_ms_p99", "ms", "lower", 0.25, false, []string{wSSSPChain}, false},
	{"query_p50_us", "us", "lower", 0.25, false, onServe, false},
	// The tail is cut where GC pauses and the scheduler put it: two sets
	// of one commit and seed lay 31% apart with every other metric within
	// 13%, so it is reported and not bounded.
	{"query_p99_us", "us", "lower", 0, false, onServe, false},
	{"query_qps", "1/s", "higher", 0.25, false, onServe, false},
	{"topk_ms_p50", "ms", "lower", 0.25, false, onServe, false},
	{"refresh_s", "s", "lower", 0.25, false, onServe, false},
	{"fail_share", "share", "lower", 0, false, onAll, false},

	// pregel: the floor for job_s everywhere.
	{"pregel.oracle_run_s", "s", "lower", 0, false, onAll, false},
	{"pregel.oracle_ratio", "ratio", "lower", 0, false, onAll, false},
	{"pregel.codec_ns_per_vertex", "ns", "lower", 0, false, onAll, false},
	{"baselines.inmem_ratio", "ratio", "lower", 0, false, []string{wPRFit}, false},

	// core: counters of the timed job, plus the traced checkpoint cost.
	{"core.load_ns_per_vertex", "ns", "lower", 0, false, onAll, false},
	{"core.dump_ns_per_vertex", "ns", "lower", 0, false, onBatch, false},
	{"core.superstep_floor_ms", "ms", "lower", 0, false, onAll, false},
	{"core.plan_loj_supersteps", "count", "lower", 0, false, onAll, false},
	{"core.plan_foj_supersteps", "count", "lower", 0, false, onAll, false},
	{"core.msgs_total", "count", "lower", 0, false, onAll, true},
	{"core.checkpoints", "count", "lower", 0, false, onBatch, false},
	{"core.ckpt_s_each", "s", "lower", 0, false, []string{wPRCluster}, false},
	{"core.cluster_overhead_ratio", "ratio", "lower", 0, false, []string{wPRCluster}, false},
	{"core.query_cache_hit_ratio", "ratio", "higher", 0, false, onServe, false},
	{"core.refresh_supersteps", "count", "lower", 0, false, onServe, false},
	{"core.refresh_msgs", "count", "lower", 0, false, onServe, false},
	{"core.seal_gap_reads", "count", "lower", 0, false, onServe, false},
	{"core.unattributed_share", "share", "lower", 0, false, onAll, false},

	// hyracks: per-job fixed cost and the in-process shuffle.
	{"hyracks.empty_job_us", "us", "lower", 0, false, onAll, false},
	{"hyracks.shuffle_chan_ns_per_tuple", "ns", "lower", 0, false, onAll, false},
	{"hyracks.shuffle_chan_mb_per_s", "MB/s", "higher", 0, false, onAll, false},
	{"hyracks.shuffle_allocs_per_tuple", "count", "lower", 0, false, onAll, false},
	{"hyracks.est_share", "share", "lower", 0, false, onAll, false},

	// operators: group-by, sort, joins at the workload's operator budget.
	{"operators.groupby_sort_ns_per_tuple", "ns", "lower", 0, false, onAll, false},
	{"operators.groupby_hashsort_ns_per_tuple", "ns", "lower", 0, false, onAll, false},
	{"operators.groupby_preclustered_ns_per_tuple", "ns", "lower", 0, false, onAll, false},
	{"operators.extsort_ns_per_tuple", "ns", "lower", 0, false, onAll, false},
	{"operators.groupby_spill_mb", "MB", "lower", 0, false, onAll, false},
	{"operators.groupby_allocs_per_tuple", "count", "lower", 0, false, onAll, false},
	{"operators.foj_ns_per_vertex", "ns", "lower", 0, false, onAll, false},
	{"operators.loj_ns_per_probe", "ns", "lower", 0, false, onAll, false},
	{"operators.merge_ns_per_tuple", "ns", "lower", 0, false, onAll, false},
	{"operators.est_share", "share", "lower", 0, false, onAll, false},

	// tuple: frames, frame images and the stream codec.
	{"tuple.append_ns_per_tuple", "ns", "lower", 0, false, onAll, false},
	{"tuple.read_ns_per_field", "ns", "lower", 0, false, onAll, false},
	{"tuple.image_write_mb_per_s", "MB/s", "higher", 0, false, onAll, false},
	{"tuple.image_read_mb_per_s", "MB/s", "higher", 0, false, onAll, false},
	{"tuple.codec_auto_ratio", "ratio", "higher", 0, false, onAll, false},
	{"tuple.codec_auto_mb_per_s", "MB/s", "higher", 0, false, onAll, false},
	{"tuple.allocs_per_tuple", "count", "lower", 0, false, onAll, false},
	{"tuple.leased_frames_end", "count", "lower", 0, false, onAll, false},
	{"tuple.est_share", "share", "lower", 0, false, onAll, false},

	// storage: index and run-file unit costs on a buffer cache of the
	// workload's size; exact cache counters of single-process jobs.
	{"storage.bulkload_ns_per_rec", "ns", "lower", 0, false, onAll, false},
	{"storage.scan_ns_per_rec", "ns", "lower", 0, false, onAll, false},
	{"storage.search_ns_per_key", "ns", "lower", 0, false, onAll, false},
	{"storage.update_ns_per_rec", "ns", "lower", 0, false, onAll, false},
	{"storage.lsm_insert_ns_per_rec", "ns", "lower", 0, false, onAll, false},
	{"storage.runfile_write_mb_per_s", "MB/s", "higher", 0, false, onAll, false},
	{"storage.runfile_read_mb_per_s", "MB/s", "higher", 0, false, onAll, false},
	{"storage.cache_hit_ratio", "ratio", "higher", 0, false, onSingle, false},
	{"storage.cache_evictions", "count", "lower", 0, false, onSingle, true},
	{"storage.cache_writebacks", "count", "lower", 0, false, onSingle, false},
	{"storage.est_share", "share", "lower", 0, false, onAll, false},

	// wire: the TCP data plane and the JSON control plane; cluster
	// workloads only.
	{"wire.shuffle_tcp_ns_per_tuple", "ns", "lower", 0, false, onCluster, false},
	{"wire.shuffle_tcp_mb_per_s", "MB/s", "higher", 0, false, onCluster, false},
	{"wire.rpc_rtt_us", "us", "lower", 0, false, onCluster, false},
	{"wire.rpc_1mb_ms", "ms", "lower", 0, false, onCluster, false},
	{"wire.bytes_per_payload_byte", "ratio", "lower", 0, false, onCluster, false},
	{"wire.est_share", "share", "lower", 0, false, onCluster, false},

	// dfs: bulk and small-file cost of the replicated file system.
	{"dfs.write_mb_per_s", "MB/s", "higher", 0, false, onAll, false},
	{"dfs.read_mb_per_s", "MB/s", "higher", 0, false, onAll, false},
	{"dfs.small_write_us", "us", "lower", 0, false, onAll, false},
	{"dfs.rename_us", "us", "lower", 0, false, onAll, false},
	{"dfs.est_share", "share", "lower", 0, false, onAll, false},

	// delta: mutation parse, route and journal; serve_mix only.
	{"delta.parse_ns_per_mut", "ns", "lower", 0, false, onServe, false},
	{"delta.route_ns_per_mut", "ns", "lower", 0, false, onServe, false},
	{"delta.journal_append_us", "us", "lower", 0, false, onServe, false},

	{"memory.node_ram_peak_mb", "MB", "lower", 0, false, onSingle, false},
	{"trace.overhead_ratio", "ratio", "lower", 0, false, onAll, false},
	// How slow the box was while the run ran (yardstick.go): every time
	// above is already divided by it, every rate multiplied.
	{"yardstick.pace", "ratio", "lower", 0, false, onAll, false},
}

var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(catalogue))
	for _, d := range catalogue {
		if _, dup := m[d.Name]; dup {
			panic("benchmark: duplicate metric " + d.Name)
		}
		m[d.Name] = d
	}
	return m
}()

// result is what one workload run reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
	// Problems lists what failed, for the human reading `run`.
	Problems []string `json:"problems,omitempty"`
}

func newResult(workload string, seed int64, traced bool) *result {
	return &result{Workload: workload, Seed: seed, Traced: traced, Metrics: make(map[string]summary)}
}

// set records a metric; the name must be in the catalogue and apply to
// the workload, so a typo cannot invent a metric.
func (r *result) set(name string, s summary) {
	d, ok := metricByName[name]
	if !ok {
		panic("benchmark: metric not in catalogue: " + name)
	}
	if !d.appliesTo(r.Workload) {
		panic(fmt.Sprintf("benchmark: metric %s does not apply to %s", name, r.Workload))
	}
	// A NaN or an infinity (an empty sample, a zero duration) is not a
	// measurement and JSON cannot carry it: the metric stays unreported
	// and the run counts a failure.
	for _, v := range []float64{s.Value, s.Q1, s.Q3} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail(1, "metric %s is not a number (%v, n=%d)", name, v, s.N)
			return
		}
	}
	r.Metrics[name] = s
}

// applyPace turns every time the run measured into what it would have
// been at the yardstick's calm pace, by the metric's unit: times are
// divided by the pace, rates multiplied; counts, sizes, ratios and shares
// stay. The pace itself is reported as yardstick.pace.
func (r *result) applyPace(pace summary) {
	for name, s := range r.Metrics {
		f := 1.0
		switch metricByName[name].Unit {
		case "s", "ms", "us", "ns":
			f = 1 / pace.Value
		case "1/s", "Mmsg/s", "MB/s":
			f = pace.Value
		}
		r.Metrics[name] = summary{Value: s.Value * f, N: s.N, Q1: s.Q1 * f, Q3: s.Q3 * f}
	}
	r.set("yardstick.pace", pace)
}

func (r *result) value(name string) (float64, bool) {
	s, ok := r.Metrics[name]
	return s.Value, ok
}

// fail counts n failed operations and records why.
func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// contractMetric is one entry of the driver-facing result line.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine renders the result as the one JSON object the driver
// reads: every end-to-end metric for an untraced run, every per-layer
// metric for a traced one (notApplicable where the metric does not apply
// to the workload). It fails when an applicable metric is missing.
func (r *result) contractLine() ([]byte, error) {
	metrics := make(map[string]contractMetric)
	for _, d := range catalogue {
		if d.EndToEnd == r.Traced {
			continue
		}
		s, ok := r.Metrics[d.Name]
		switch {
		case ok:
			metrics[d.Name] = contractMetric{Value: s.Value, Unit: d.Unit}
		case !d.appliesTo(r.Workload):
			metrics[d.Name] = contractMetric{Value: notApplicable, Unit: d.Unit}
		default:
			return nil, fmt.Errorf("workload %s did not report %s", r.Workload, d.Name)
		}
	}
	return json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures; see `seconds` in runConfig.
const runSeconds = 12

// buildManifest derives BENCHMARK.json from the catalogue, so the file
// and the program cannot name different metrics.
func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadNames {
		m.Workloads = append(m.Workloads, manifestWL{Name: w, Why: workloadWhy[w]})
	}
	for _, d := range catalogue {
		mm := manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if d.EndToEnd {
			b := d.Bound
			mm.Bound = &b
			m.EndToEnd = append(m.EndToEnd, mm)
		} else {
			m.PerLayer = append(m.PerLayer, mm)
		}
	}
	return m
}

// sortedMetricNames lists the metrics of r in catalogue order.
func (r *result) sortedMetricNames() []string {
	order := make(map[string]int, len(catalogue))
	for i, d := range catalogue {
		order[d.Name] = i
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	return names
}
