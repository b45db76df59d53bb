package core

import (
	"bytes"
	"testing"

	"pregelix/internal/tuple"
	"pregelix/pregel"
)

func doubleJob(c pregel.Combiner) *pregel.Job {
	return &pregel.Job{Codec: pregel.Codec{NewMessage: pregel.NewDouble}, Combiner: c}
}

// msgTuple builds a (vid, one-message list) tuple inside a buffer with
// spare capacity after every field, as a frame has: a combiner that
// appended to a field in place would show in the buffer.
func msgTuple(vid uint64, v float64) (t tuple.Tuple, buf []byte) {
	d := pregel.Double(v)
	buf = tuple.AppendUint64(make([]byte, 0, 64), vid)
	buf = pregel.AppendMsgList(buf, &d)
	return tuple.Tuple{buf[:8], buf[8:]}, buf[:cap(buf)]
}

func decodeSum(t *testing.T, job *pregel.Job, payload []byte) float64 {
	t.Helper()
	ms, err := job.Codec.DecodeMsgList(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("combined list holds %d messages, want 1", len(ms))
	}
	return float64(*ms[0].(*pregel.Double))
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
			in, buf := msgTuple(vid, v)
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
		if got := decodeSum(t, job, acc1[1]); got != 1275 {
			t.Errorf("%s: group 1 sums to %v, want 1275", name, got)
		}
		if got := decodeSum(t, job, acc2[1]); got != 12750 {
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
	first, buf := msgTuple(1, 0)
	image := append([]byte(nil), buf...)
	acc := c.First(tuple.Tuple{first[0], first[1]})
	for i := 1; i < 100; i++ {
		in, _ := msgTuple(1, float64(i))
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
	first, _ := msgTuple(1, 1)
	in, _ := msgTuple(1, 2)
	acc := c.First(first)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc = c.Add(acc, in)
	}
}
