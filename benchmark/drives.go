package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/graphgen"
	"pregelix/pregel"
)

// A layer drive calls one layer's public functions from outside, at the
// volume and record sizes the workload's own job reported, with a span
// around every call. The unit costs it measures, multiplied by the job's
// volumes, give each layer's estimated share of job_s; what no layer
// claims is core.unattributed_share.

// driveRepeats is how often a bulk drive repeats; the median is reported.
const driveRepeats = 3

// driveFloorTuples keeps per-tuple drives above timer and fixed-cost
// noise on workloads that move almost nothing per superstep
// (sssp_chain): a marginal per-tuple cost needs tuples to divide by.
const driveFloorTuples = 20000

// volumes is what one job moved, as JobStats and the oracle report it.
type volumes struct {
	supersteps, fojSteps, lojSteps int64
	vertices, edges                int64
	netTuples, netBytes            int64 // over the m-to-n connectors
	wireRawBytes                   int64 // the part that crossed sockets, uncompressed
	msgs                           int64 // combined messages delivered
	rawMsgs                        int64 // messages Compute sent (oracle)
	lojProbes                      int64 // index probes of the left-outer-join supersteps
	updates                        int64 // vertex records rewritten
	checkpoints                    int64
	inputBytes, outputBytes        int64
	msgPayload                     int // bytes of one message's payload field
	vertexBytes                    int // mean encoded vertex record
}

// drives runs every layer drive for one workload and reports the
// per-layer metrics and the est_share set.
type drives struct {
	ctx     context.Context
	cfg     *runConfig
	res     *result
	tr      *tracer
	parent  int
	dir     string
	graph   *graphgen.Graph
	job     *pregel.Job
	ram     int64 // per node, as the workload configures it
	cluster bool
	jobS    float64
	vol     volumes

	keys []uint64 // message destinations in the order the graph yields them
}

// span runs fn inside a span under parent and returns how long it took.
func (d *drives) span(name string, parent int, fn func() error) (time.Duration, error) {
	id := d.tr.begin(name, parent)
	start := time.Now()
	err := fn()
	el := time.Since(start)
	d.tr.end(id)
	return el, err
}

// scaledCount applies the run's scale to a drive's repeat count.
func (d *drives) scaledCount(n int) int { return d.cfg.scaled(n, 5) }

// perStepTuples is the message volume of one superstep, floored.
func (d *drives) perStepTuples() int {
	n := int64(0)
	if d.vol.supersteps > 0 {
		n = d.vol.rawMsgs / d.vol.supersteps
	}
	floor := int64(d.cfg.scaled(driveFloorTuples, 500))
	if n < floor {
		n = floor
	}
	return int(n)
}

// vidKey is a vertex id as the engine keys it: 8 bytes, big endian.
func vidKey(dst []byte, vid uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], vid)
	return append(dst, b[:]...)
}

// destKeys lists n message destinations: the graph's edge destinations
// in vertex order, cycled, which is the key distribution the group-by
// and the shuffle see.
func destKeys(g *graphgen.Graph, n int) []uint64 {
	keys := make([]uint64, 0, n)
	ids := g.VertexIDs()
	for len(keys) < n {
		before := len(keys)
		for _, id := range ids {
			for _, dst := range g.Adj[id] {
				keys = append(keys, dst)
				if len(keys) == n {
					return keys
				}
			}
		}
		if len(keys) == before { // a graph without edges
			for _, id := range ids {
				keys = append(keys, id)
				if len(keys) == n {
					return keys
				}
			}
		}
	}
	return keys
}

// volumesOf reads a job's volumes from its stats.
func volumesOf(stats *core.JobStats, rawMsgs int64, input, output int, job *pregel.Job, g *graphgen.Graph) volumes {
	v := volumes{
		supersteps:  stats.Supersteps,
		vertices:    stats.FinalState.NumVertices,
		edges:       stats.FinalState.NumEdges,
		msgs:        stats.TotalMessages,
		rawMsgs:     rawMsgs,
		checkpoints: int64(stats.Checkpoints),
		inputBytes:  int64(input),
		outputBytes: int64(output),
	}
	var prev core.SuperstepStat
	for i, ss := range stats.SuperstepStats {
		v.netTuples += ss.NetworkTuples
		v.netBytes += ss.NetworkBytes
		v.wireRawBytes += ss.NetworkWireRawBytes
		// A superstep computes the vertices that were live or addressed
		// when it began, and rewrites those.
		touched := v.vertices
		if i > 0 {
			touched = min(prev.LiveVertices+prev.Messages, v.vertices)
		}
		v.updates += touched
		if ss.Plan == pregel.LeftOuterJoin.String() {
			v.lojSteps++
			v.lojProbes += touched
		} else {
			v.fojSteps++
		}
		prev = ss
	}
	one := pregel.Double(1)
	v.msgPayload = len(pregel.EncodeMsgList(&one))
	v.vertexBytes = meanVertexBytes(job, g)
	return v
}

// sampleVertices builds up to n of g's vertices the way the loader does.
func sampleVertices(job *pregel.Job, g *graphgen.Graph, n int) []*pregel.Vertex {
	ids := g.VertexIDs()
	if len(ids) > n {
		ids = ids[:n]
	}
	out := make([]*pregel.Vertex, 0, len(ids))
	for _, id := range ids {
		v := &pregel.Vertex{ID: pregel.VertexID(id), Value: job.Codec.NewVertexValue()}
		for i, dst := range g.Adj[id] {
			var ev pregel.Value
			if g.Weights != nil && job.Codec.NewEdgeValue != nil {
				w := pregel.Float(g.Weights[id][i])
				ev = &w
			}
			v.Edges = append(v.Edges, pregel.Edge{Dest: pregel.VertexID(dst), Value: ev})
		}
		out = append(out, v)
	}
	return out
}

func meanVertexBytes(job *pregel.Job, g *graphgen.Graph) int {
	vs := sampleVertices(job, g, 2000)
	if len(vs) == 0 {
		return 16
	}
	total := 0
	for _, v := range vs {
		total += len(job.Codec.EncodeVertex(v))
	}
	return total / len(vs)
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// run executes every drive that applies to the workload, then the share
// estimates.
func (d *drives) run() error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	d.keys = destKeys(d.graph, d.perStepTuples())
	steps := []struct {
		name string
		fn   func(span int) error
		on   bool
	}{
		{"drive:pregel", d.drivePregel, true},
		{"drive:hyracks", d.driveHyracks, true},
		{"drive:operators", d.driveOperators, true},
		{"drive:tuple", d.driveTuple, true},
		{"drive:storage", d.driveStorage, true},
		{"drive:dfs", d.driveDFS, true},
		{"drive:wire", d.driveWire, d.cluster},
		{"drive:delta", d.driveDelta, d.cfg.Workload == wServeMix},
	}
	for _, s := range steps {
		if !s.on {
			continue
		}
		id := d.tr.begin(s.name, d.parent)
		err := s.fn(id)
		d.tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	d.shares()
	return nil
}

// metric reads back a unit cost a drive has reported.
func (d *drives) metric(name string) float64 {
	v, _ := d.res.value(name)
	return v
}

// shares turns unit costs and volumes into each layer's estimated share
// of job_s. Data-path volumes are divided by the partition count: the
// drives run one partition's work on one core, the job runs simNodes of
// them side by side.
func (d *drives) shares() {
	v := d.vol
	const ns, us, ms = 1e-9, 1e-6, 1e-3
	par := float64(simNodes)
	share := func(seconds float64) float64 { return seconds / d.jobS }

	gb := d.metric("operators.groupby_sort_ns_per_tuple")
	if d.job.GroupBy == pregel.HashSortGroupBy {
		gb = d.metric("operators.groupby_hashsort_ns_per_tuple")
	}
	scan := d.metric("storage.scan_ns_per_rec")
	join := math.Max(d.metric("operators.foj_ns_per_vertex")-scan, 0)
	search := d.metric("storage.search_ns_per_key")
	probe := math.Max(d.metric("operators.loj_ns_per_probe")-search, 0)
	chanNS := d.metric("hyracks.shuffle_chan_ns_per_tuple")

	hy := float64(v.supersteps)*d.metric("hyracks.empty_job_us")*us +
		float64(v.netTuples)*chanNS*ns/par
	op := (float64(v.rawMsgs+v.netTuples)*gb +
		float64(v.fojSteps*v.vertices)*join +
		float64(v.lojProbes)*probe) * ns / par
	tu := float64(v.rawMsgs+v.netTuples+v.msgs) *
		(d.metric("tuple.append_ns_per_tuple") + 2*d.metric("tuple.read_ns_per_field")) * ns / par
	msgBytes := float64(v.msgs) * float64(8+v.msgPayload)
	st := (float64(v.fojSteps*v.vertices)*scan+
		float64(v.lojProbes)*search+
		float64(v.updates)*d.metric("storage.update_ns_per_rec")+
		float64(v.vertices)*d.metric("storage.bulkload_ns_per_rec"))*ns/par +
		(msgBytes/1e6/d.metric("storage.runfile_write_mb_per_s")+
			msgBytes/1e6/d.metric("storage.runfile_read_mb_per_s"))/par
	ckptBytes := float64(v.checkpoints) * (float64(v.vertices)*float64(8+v.vertexBytes) + msgBytes/math.Max(float64(v.supersteps), 1))
	df := float64(v.inputBytes)/1e6/d.metric("dfs.read_mb_per_s") +
		(float64(v.outputBytes)+ckptBytes)/1e6/d.metric("dfs.write_mb_per_s")
	if !d.cluster {
		// The single-process runtime writes the global state to the DFS
		// after every superstep; the coordinator keeps it in memory.
		df += float64(v.supersteps) * d.metric("dfs.small_write_us") * us
	}

	total := 0.0
	for name, s := range map[string]float64{
		"hyracks.est_share": hy, "operators.est_share": op, "tuple.est_share": tu,
		"storage.est_share": st, "dfs.est_share": df,
	} {
		d.res.set(name, single(share(s)))
		total += share(s)
	}
	if d.cluster {
		wireTuples := 0.0
		if v.netBytes > 0 {
			wireTuples = float64(v.netTuples) * float64(v.wireRawBytes) / float64(v.netBytes)
		}
		wi := wireTuples*math.Max(d.metric("wire.shuffle_tcp_ns_per_tuple")-chanNS, 0)*ns/par +
			// one phase RPC per superstep (the workers answer in parallel)
			float64(v.supersteps)*d.metric("wire.rpc_rtt_us")*us +
			// checkpoint images ride the JSON control plane
			ckptBytes/float64(1<<20)*d.metric("wire.rpc_1mb_ms")*ms
		d.res.set("wire.est_share", single(share(wi)))
		total += share(wi)
	}
	d.res.set("core.unattributed_share", single(1-total))
}

// driveDir is a fresh sub-directory of the drives' scratch space.
func (d *drives) driveDir(name string) (string, error) {
	p := filepath.Join(d.dir, name)
	if err := os.MkdirAll(p, 0o755); err != nil {
		return "", err
	}
	return p, nil
}
