package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/internal/operators"
	"pregelix/internal/tuple"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

func doubleJob(c pregel.Combiner) *pregel.Job {
	return &pregel.Job{Codec: pregel.Codec{NewMessage: pregel.NewDouble}, Combiner: c}
}

// msgTuple builds a (vid, message) tuple of the job's payload layout
// inside a buffer with spare capacity after every field, as a frame has:
// a combiner that appended to a field in place would show in the buffer.
func msgTuple(job *pregel.Job, vid uint64, v float64) (t tuple.Tuple, buf []byte) {
	d := pregel.Double(v)
	buf = tuple.AppendUint64(make([]byte, 0, 64), vid)
	buf = appendPayload(job, buf, &d)
	return tuple.Tuple{buf[:8], buf[8:]}, buf[:cap(buf)]
}

// decodeSum decodes a combined payload, which is one Double's bytes.
func decodeSum(t *testing.T, payload []byte) float64 {
	t.Helper()
	var d pregel.Double
	if err := d.Unmarshal(payload); err != nil {
		t.Fatalf("combined payload %x: %v", payload, err)
	}
	return float64(d)
}

// TestMsgCombinerKeepsAccumulatorsApart folds two groups alternately, as
// the hash group-by does, through combiners that hand back their first
// argument, their second argument, and a value of their own. The sums
// must come out right, and no input tuple may be written to.
func TestMsgCombinerKeepsAccumulatorsApart(t *testing.T) {
	combiners := map[string]pregel.Combiner{
		"returns first": pregel.CombinerFunc(func(a, b pregel.Value) pregel.Value {
			*a.(*pregel.Double) += *b.(*pregel.Double)
			return a
		}),
		"returns second": pregel.CombinerFunc(func(a, b pregel.Value) pregel.Value {
			*b.(*pregel.Double) += *a.(*pregel.Double)
			return b
		}),
		"returns fresh": pregel.CombinerFunc(func(a, b pregel.Value) pregel.Value {
			s := *a.(*pregel.Double) + *b.(*pregel.Double)
			return &s
		}),
	}
	for name, user := range combiners {
		job := doubleJob(user)
		c := newMsgCombiner(job)
		var inputs []tuple.Tuple
		var bufs, images [][]byte
		next := func(vid uint64, v float64) tuple.Tuple {
			in, buf := msgTuple(job, vid, v)
			inputs = append(inputs, in)
			bufs = append(bufs, buf)
			images = append(images, append([]byte(nil), buf...))
			return in
		}
		// First keeps its argument's header; a group-by hands it one of
		// its own, never the input's.
		first := func(in tuple.Tuple) tuple.Tuple { return c.First(tuple.Tuple{in[0], in[1]}) }
		acc1 := first(next(1, 1))
		acc2 := first(next(2, 10))
		for i := 2; i <= 50; i++ {
			acc1 = c.Add(acc1, next(1, float64(i)))
			acc2 = c.Add(acc2, next(2, 10*float64(i)))
		}
		if got := decodeSum(t, acc1[1]); got != 1275 {
			t.Errorf("%s: group 1 sums to %v, want 1275", name, got)
		}
		if got := decodeSum(t, acc2[1]); got != 12750 {
			t.Errorf("%s: group 2 sums to %v, want 12750", name, got)
		}
		for i := range bufs {
			if !bytes.Equal(bufs[i], images[i]) {
				t.Fatalf("%s: the combiner wrote into input tuple %d", name, i)
			}
		}
		if name == "returns fresh" {
			continue // that one allocates its result
		}
		if allocs := testing.AllocsPerRun(100, func() { acc1 = c.Add(acc1, inputs[2]) }); allocs != 0 {
			t.Errorf("%s: Add allocates %v times", name, allocs)
		}
	}
}

// Without a user combiner the lists are gathered, in order.
func TestMsgCombinerGathersWithoutCombiner(t *testing.T) {
	job := doubleJob(nil)
	c := newMsgCombiner(job)
	first, buf := msgTuple(job, 1, 0)
	image := append([]byte(nil), buf...)
	acc := c.First(tuple.Tuple{first[0], first[1]})
	for i := 1; i < 100; i++ {
		in, _ := msgTuple(job, 1, float64(i))
		acc = c.Add(acc, in)
	}
	ms, err := job.Codec.DecodeMsgList(acc[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 100 {
		t.Fatalf("gathered %d messages, want 100", len(ms))
	}
	for i, m := range ms {
		if got := float64(*m.(*pregel.Double)); got != float64(i) {
			t.Fatalf("message %d is %v", i, got)
		}
	}
	if !bytes.Equal(buf, image) {
		t.Fatal("the combiner wrote into the first input tuple")
	}
}

func BenchmarkMsgCombinerAdd(b *testing.B) {
	job := doubleJob(pregel.CombinerFunc(func(a, b pregel.Value) pregel.Value {
		*a.(*pregel.Double) += *b.(*pregel.Double)
		return a
	}))
	c := newMsgCombiner(job)
	first, _ := msgTuple(job, 1, 1)
	in, _ := msgTuple(job, 1, 2)
	acc := c.First(first)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = c.Add(acc, in)
	}
}

// TestMsgCombinerOneMessageFold folds random message streams of the
// algorithms' combiners through Add, under both group-by policies, in
// memory and spilling, and compares every destination's message with a
// fold of the decoded messages in arrival order: PageRank's sum (of
// whole numbers, so that the order of the additions cannot show), SSSP's
// and CC's minimum, FirstCombiner, and k-core's concatenation, whose
// result outgrows its record. A payload that is not one message's bytes
// (a list around it, or a length the message type rejects) is corrupt
// under a combiner and must still panic.
func TestMsgCombinerOneMessageFold(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	cases := []struct {
		name string
		job  *pregel.Job
		msg  func() pregel.Value
	}{
		{"pagerank sum", doubleJob(algorithms.SumCombiner()), func() pregel.Value {
			d := pregel.Double(rng.Intn(1000))
			return &d
		}},
		{"sssp min", doubleJob(algorithms.MinDoubleCombiner()), func() pregel.Value {
			d := pregel.Double(rng.Float64())
			return &d
		}},
		{"cc min", &pregel.Job{Codec: pregel.Codec{NewMessage: pregel.NewInt64}, Combiner: algorithms.MinInt64Combiner()}, func() pregel.Value {
			v := pregel.Int64(rng.Int63())
			return &v
		}},
		{"first", &pregel.Job{Codec: pregel.Codec{NewMessage: pregel.NewInt64}, Combiner: algorithms.FirstCombiner()}, func() pregel.Value {
			v := pregel.Int64(rng.Int63())
			return &v
		}},
		{"kcore concat", &pregel.Job{Codec: pregel.Codec{NewMessage: pregel.NewVIDList}, Combiner: algorithms.VIDListConcatCombiner()}, func() pregel.Value {
			l := make(pregel.VIDList, rng.Intn(3))
			for i := range l {
				l[i] = rng.Uint64()
			}
			return &l
		}},
	}
	const n, vids = 20000, 3000
	for _, c := range cases {
		// The stream, and the reference: each destination's messages
		// decoded and folded in arrival order.
		frames := []*tuple.Frame{tuple.GetFrame()}
		app := tuple.NewFrameAppender(frames[0])
		want := map[uint64]pregel.Value{}
		for i := 0; i < n; i++ {
			vid, m := uint64(rng.Intn(vids)), c.msg()
			payload := appendPayload(c.job, nil, m)
			for !app.Append(tuple.EncodeUint64(vid), payload) {
				frames = append(frames, tuple.GetFrame())
				app.Reset(frames[len(frames)-1])
			}
			d := c.job.Codec.NewMessage()
			if err := d.Unmarshal(payload); err != nil {
				t.Fatal(err)
			}
			if acc, ok := want[vid]; ok {
				want[vid] = c.job.Combiner.Combine(acc, d)
			} else {
				want[vid] = d
			}
		}
		for _, kind := range []operators.GroupByKind{operators.HashSortGroupBy, operators.SortGroupBy} {
			for _, opMem := range []int64{64 << 20, 64 << 10} {
				what := fmt.Sprintf("%s, policy %d, %d bytes", c.name, kind, opMem)
				got := foldMessages(t, c.job, kind, opMem, frames)
				if len(got) != len(want) {
					t.Fatalf("%s: %d destinations, want %d", what, len(got), len(want))
				}
				for vid, m := range want {
					if w := m.Marshal(nil); !bytes.Equal(got[vid], w) {
						t.Fatalf("%s: vid %d combined to %x, want %x", what, vid, got[vid], w)
					}
				}
			}
		}
		for _, f := range frames {
			tuple.PutFrame(f)
		}
	}

	job := doubleJob(algorithms.SumCombiner())
	one := func() []byte { return pregel.Double(1).Marshal(nil) }
	a, b := pregel.Double(1), pregel.Double(2)
	for name, bad := range map[string][]byte{
		"list of one":    pregel.EncodeMsgList(&a),
		"list of two":    pregel.EncodeMsgList(&a, &b),
		"short":          one()[:7],
		"trailing bytes": append(one(), 0),
		"empty":          {},
	} {
		for _, side := range []string{"accumulator", "tuple"} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "corrupt message") {
						t.Errorf("%s as the %s: Add panicked with %v, want a corrupt message", name, side, r)
					}
				}()
				key := tuple.EncodeUint64(1)
				acc, in := tuple.Tuple{key, one()}, tuple.Tuple{key, bad}
				if side == "accumulator" {
					acc, in = tuple.Tuple{key, bad}, tuple.Tuple{key, one()}
				}
				newMsgCombiner(job).Add(acc, in)
			}()
		}
	}
}

// foldMessages runs the message frames through a group-by of the given
// policy and operator memory with the job's msgCombiner, and returns
// each destination's combined payload.
func foldMessages(t *testing.T, job *pregel.Job, kind operators.GroupByKind, opMem int64, frames []*tuple.Frame) map[uint64][]byte {
	t.Helper()
	node, err := hyracks.NewNodeController("n", t.TempDir(), hyracks.NodeConfig{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	tc := &hyracks.TaskContext{
		Ctx: context.Background(), Node: node, JobName: "fold", OperatorID: "gb-local",
		NumPartitions: 1, OperatorMem: opMem,
	}
	got := map[uint64][]byte{}
	sink := &hyracks.FuncRuntime{OnRef: func(_ *hyracks.BaseRuntime, r tuple.TupleRef) error {
		vid := tuple.DecodeUint64(r.Field(0))
		if _, dup := got[vid]; dup {
			return fmt.Errorf("vid %d emitted twice", vid)
		}
		got[vid] = append([]byte(nil), r.Field(1)...)
		return nil
	}}
	gb := operators.NewGroupByRuntime(tc, kind, newMsgCombiner(job))
	gb.SetOutputs([]hyracks.FrameWriter{sink})
	if err := gb.Open(); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := gb.NextFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := gb.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

// payloadJob is PageRank for 4 iterations, with its combiner or, when
// lists is set, without one, so that each receiver gathers a list.
func payloadJob(raw json.RawMessage) (*pregel.Job, error) {
	var s struct{ Lists bool }
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	job := algorithms.NewPageRankJob("payload", "/in/g", "", 4)
	if s.Lists {
		job.Combiner = nil
	}
	return job, nil
}

// TestMsgTupleBytes: under a combiner a Msg tuple is an 8-byte vid and
// exactly the message's Marshal bytes, so a superstep's IOBytes, which
// are its Msg relation's on a graph this small, are receivers × (8 +
// len(Marshal)). Without a combiner each receiver's payload is a list:
// a u32 count and, per message, a u32 length and its bytes. The same
// holds on the runtime and on a 2-worker cluster.
func TestMsgTupleBytes(t *testing.T) {
	g := graphgen.Webmap(500, 5, 9)
	indeg := map[uint64]int64{}
	var edges int64
	for _, dests := range g.Adj {
		for _, d := range dests {
			indeg[d]++
			edges++
		}
	}
	receivers := int64(len(indeg))
	msgLen := int64(len(pregel.Double(0).Marshal(nil)))
	want := func(lists bool) int64 {
		if lists {
			return receivers*(8+4) + edges*(4+msgLen)
		}
		return receivers * (8 + msgLen)
	}
	check := func(t *testing.T, what string, lists bool, stats *JobStats) {
		t.Helper()
		if len(stats.SuperstepStats) != 4 {
			t.Fatalf("%s: %d supersteps, want 4", what, len(stats.SuperstepStats))
		}
		for _, ss := range stats.SuperstepStats[:3] { // the last sends nothing
			if ss.IOBytes != want(lists) {
				t.Errorf("%s, superstep %d: IOBytes = %d, want %d", what, ss.Superstep, ss.IOBytes, want(lists))
			}
		}
	}

	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/g", g)
	kc := startSparseCluster(t, 2, 1, tuple.CompressOff, func(int) func(json.RawMessage) (*pregel.Job, error) {
		return payloadJob
	})
	for _, lists := range []bool{false, true} {
		spec, _ := json.Marshal(struct{ Lists bool }{lists})
		job, err := payloadJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("lists %v", lists)
		stats, err := rt.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		check(t, what+", runtime", lists, stats)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		stats, _, err = kc.coord.RunJob(ctx, DistSubmission{
			Name: fmt.Sprintf("payload-%v", lists), Spec: spec, Job: job,
			InputPath: "/in/g", InputData: graphText(t, g),
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		check(t, what+", cluster", lists, stats)
	}
}

// TestWordFoldAgreesWithCombine: the built-in combiners give the job's
// msgCombiner a word fold for their message types, and for no other.
// Over 2000 pairs of payloads of each, random bits and NaN, ±0, ±Inf,
// MinInt64 and MaxInt64 among them, the word fold leaves the bytes of
// Marshal(Combine(a, b)). A hash group-by over such a combiner is a word
// table, which panics on a payload of the wrong width with a corrupt
// message.
func TestWordFoldAgreesWithCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	bits := func(specials ...uint64) func() []byte {
		return func() []byte {
			w := rng.Uint64()
			if rng.Intn(3) == 0 {
				w = specials[rng.Intn(len(specials))]
			}
			return binary.LittleEndian.AppendUint64(nil, w)
		}
	}
	floats := bits(math.Float64bits(math.NaN()), 0x7ff0000000000001, math.Float64bits(math.Copysign(0, -1)), 0,
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), math.Float64bits(1), math.Float64bits(-1))
	ints := bits(1<<63, 1<<63-1, 0, 1, math.MaxUint64)
	bools := func() []byte { return []byte{[]byte{0, 1, 2, 0xff}[rng.Intn(4)]} }
	int64Job := func(c pregel.Combiner) *pregel.Job {
		return &pregel.Job{Codec: pregel.Codec{NewMessage: pregel.NewInt64}, Combiner: c}
	}
	cases := []struct {
		name    string
		job     *pregel.Job
		payload func() []byte
	}{
		{"pagerank sum", doubleJob(algorithms.SumCombiner()), floats},
		{"sssp min", doubleJob(algorithms.MinDoubleCombiner()), floats},
		{"cc min", int64Job(algorithms.MinInt64Combiner()), ints},
		{"first bool", &pregel.Job{Codec: pregel.Codec{NewMessage: pregel.NewBool}, Combiner: algorithms.FirstCombiner()}, bools},
		{"first int64", int64Job(algorithms.FirstCombiner()), ints},
	}
	for _, c := range cases {
		fold, width := newMsgCombiner(c.job).WordFold()
		if fold == nil || width != len(c.payload()) {
			t.Fatalf("%s: word fold %v of width %d", c.name, fold != nil, width)
		}
		for i := 0; i < 2000; i++ {
			a, b := c.payload(), c.payload()
			ma, mb := c.job.Codec.NewMessage(), c.job.Codec.NewMessage()
			if ma.Unmarshal(a) != nil || mb.Unmarshal(b) != nil {
				t.Fatalf("%s: %x or %x does not decode", c.name, a, b)
			}
			want := c.job.Combiner.Combine(ma, mb).Marshal(nil)
			word := func(p []byte) uint64 {
				var w [8]byte
				copy(w[:], p)
				return binary.LittleEndian.Uint64(w[:])
			}
			got := binary.LittleEndian.AppendUint64(nil, fold(word(a), word(b)))[:width]
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %x folded with %x as words gives %x, Combine gives %x", c.name, a, b, got, want)
			}
		}
	}

	concat := algorithms.VIDListConcatCombiner()
	for name, job := range map[string]*pregel.Job{
		"first double": doubleJob(algorithms.FirstCombiner()),
		"sum of int64": int64Job(algorithms.SumCombiner()),
		"kcore concat": {Codec: pregel.Codec{NewMessage: pregel.NewVIDList}, Combiner: concat},
		"user first":   doubleJob(pregel.CombinerFunc(func(a, b pregel.Value) pregel.Value { return a })),
		"no combiner":  doubleJob(nil),
	} {
		if fold, _ := newMsgCombiner(job).WordFold(); fold != nil {
			t.Errorf("%s: a word fold", name)
		}
	}

	job := doubleJob(algorithms.SumCombiner())
	key := tuple.EncodeUint64(1)
	node, err := hyracks.NewNodeController("n", t.TempDir(), hyracks.NodeConfig{PageSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	tc := &hyracks.TaskContext{Ctx: context.Background(), Node: node, JobName: "words", OperatorID: "gb-local", NumPartitions: 1}
	for _, payload := range [][]byte{make([]byte, 7), make([]byte, 9), nil} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "corrupt message") {
					t.Errorf("a %d-byte Double into a word table: panicked with %v, want a corrupt message", len(payload), r)
				}
			}()
			gb := operators.NewGroupByRuntime(tc, operators.HashSortGroupBy, newMsgCombiner(job))
			gb.SetOutputs(nil)
			if err := gb.Open(); err != nil {
				t.Fatal(err)
			}
			defer gb.Close()
			gb.(messageTable).AddFields(tuple.Tuple{key, pregel.Double(1).Marshal(nil)})
			gb.(messageTable).AddFields(tuple.Tuple{key, payload})
		}()
	}
}
