package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// gatedProgram blocks every vertex computation of superstep 1 until the
// gate closes, after signalling once per job that the job has reached
// compute. It lets tests hold N jobs provably mid-superstep at once.
type gatedProgram struct {
	arrived func()
	gate    <-chan struct{}
	once    sync.Once
}

func (p *gatedProgram) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	if ctx.Superstep() == 1 {
		p.once.Do(p.arrived)
		<-p.gate
	}
	v.VoteToHalt()
	return nil
}

func newGatedJob(name string, arrived func(), gate <-chan struct{}) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: &gatedProgram{arrived: arrived, gate: gate},
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewInt64,
			NewMessage:     pregel.NewInt64,
		},
		InputPath: "/in/shared",
	}
}

// waitAll blocks until every handle's job has finished and fails the
// test on the first job error.
func waitAll(t *testing.T, handles []*JobHandle) {
	t.Helper()
	for _, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatalf("job %s: %v", h.Name(), err)
		}
	}
}

// TestJobManagerFourJobsRunConcurrently is the acceptance scenario: six
// jobs submitted against one shared cluster with a 4-slot admission
// bound; four run concurrently (all provably mid-superstep at the same
// instant) while the other two wait in the queue, then everything
// drains.
func TestJobManagerFourJobsRunConcurrently(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/shared", graphgen.Webmap(60, 3, 7))

	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 4})
	defer m.Close()

	const jobs = 6
	arrivals := make(chan string, jobs)
	gate := make(chan struct{})
	var handles []*JobHandle
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("gated-%d", i)
		h, err := m.Submit(context.Background(), newGatedJob(name, func() { arrivals <- name }, gate))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}

	// Exactly four jobs must reach compute; the fifth arrival would mean
	// admission control is broken.
	running := map[string]bool{}
	for len(running) < 4 {
		select {
		case name := <-arrivals:
			running[name] = true
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d jobs reached compute: %v", len(running), running)
		}
	}
	select {
	case name := <-arrivals:
		t.Fatalf("fifth job %s admitted past the 4-job bound", name)
	case <-time.After(100 * time.Millisecond):
	}
	if _, queued, running := m.Gate().Stats(); queued != 2 || running != 4 {
		t.Fatalf("gate reports %d queued and %d running, want 2 and 4", queued, running)
	}

	close(gate)
	waitAll(t, handles)
	stats, _, _ := m.Gate().Stats()
	if stats.Completed != jobs {
		t.Fatalf("completed %d jobs, want %d", stats.Completed, jobs)
	}
	if stats.PeakRunning != 4 {
		t.Fatalf("peak running %d, want 4", stats.PeakRunning)
	}
}

// TestJobManagerResultsMatchSequential checks the isolation contract:
// jobs crammed through a 2-slot admission bound on one shared cluster
// must produce byte-identical results to sequential oracle execution.
func TestJobManagerResultsMatchSequential(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.Webmap(300, 4, 11)
	putGraph(t, rt, "/in/shared", g)

	type workload struct {
		name string
		mk   func(name, out string) *pregel.Job
	}
	workloads := []workload{
		{"pr-a", func(n, o string) *pregel.Job { return algorithms.NewPageRankJob(n, "/in/shared", o, 3) }},
		{"pr-b", func(n, o string) *pregel.Job { return algorithms.NewPageRankJob(n, "/in/shared", o, 3) }},
		{"cc-a", func(n, o string) *pregel.Job { return algorithms.NewConnectedComponentsJob(n, "/in/shared", o) }},
		{"cc-b", func(n, o string) *pregel.Job { return algorithms.NewConnectedComponentsJob(n, "/in/shared", o) }},
		{"sssp", func(n, o string) *pregel.Job { return algorithms.NewSSSPJob(n, "/in/shared", o, 1) }},
	}

	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 2})
	defer m.Close()
	var handles []*JobHandle
	for _, w := range workloads {
		h, err := m.Submit(context.Background(), w.mk(w.name, "/out/"+w.name))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	waitAll(t, handles)

	for _, w := range workloads {
		want := referenceValues(t, w.mk(w.name, ""), g)
		got := readOutputValues(t, rt, "/out/"+w.name)
		compareValues(t, got, want, w.name)
	}
	stats, _, _ := m.Gate().Stats()
	if stats.PeakRunning > 2 {
		t.Fatalf("admission bound violated: peak running %d > 2", stats.PeakRunning)
	}
	if stats.Completed != int64(len(workloads)) {
		t.Fatalf("completed %d, want %d", stats.Completed, len(workloads))
	}
}

// TestJobManagerCancelMidSuperstep cancels a long-running job between
// supersteps and checks the cancellation is clean: the victim reports
// canceled, the shared cluster stays healthy, and a concurrent job
// finishes normally.
func TestJobManagerCancelMidSuperstep(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.Webmap(200, 4, 13)
	putGraph(t, rt, "/in/shared", g)

	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 2})
	defer m.Close()

	victim, err := m.Submit(context.Background(),
		algorithms.NewPageRankJob("long-pr", "/in/shared", "/out/long", 10000))
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := m.Submit(context.Background(),
		algorithms.NewConnectedComponentsJob("cc", "/in/shared", "/out/cc"))
	if err != nil {
		t.Fatal(err)
	}

	// Let the victim run a little so the cancel lands mid-run, not
	// pre-admission.
	select {
	case <-victim.Admitted():
	case <-time.After(30 * time.Second):
		t.Fatal("victim never started running")
	}
	time.Sleep(10 * time.Millisecond)
	victim.Cancel()

	if _, err := victim.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("victim error = %v, want context.Canceled", err)
	}
	if _, err := bystander.Wait(context.Background()); err != nil {
		t.Fatalf("bystander failed after cancel: %v", err)
	}
	want := referenceValues(t, algorithms.NewConnectedComponentsJob("cc", "", ""), g)
	compareValues(t, readOutputValues(t, rt, "/out/cc"), want, "bystander-cc")

	stats, _, _ := m.Gate().Stats()
	if stats.Canceled != 1 || stats.Completed != 1 {
		t.Fatalf("gate stats %+v, want 1 canceled + 1 completed", stats)
	}
}

// TestJobManagerCancelQueued cancels a job that never left the queue.
func TestJobManagerCancelQueued(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/shared", graphgen.Webmap(50, 3, 5))

	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 1})
	defer m.Close()

	gate := make(chan struct{})
	arrived := make(chan struct{}, 1)
	blocker, err := m.Submit(context.Background(),
		newGatedJob("blocker", func() { arrived <- struct{}{} }, gate))
	if err != nil {
		t.Fatal(err)
	}
	<-arrived // blocker holds the only slot mid-superstep

	queued, err := m.Submit(context.Background(),
		algorithms.NewConnectedComponentsJob("queued-cc", "/in/shared", "/out/qcc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, queued, _ := m.Gate().Stats(); queued != 1 {
		t.Fatalf("%d jobs queued behind the blocker, want 1", queued)
	}
	queued.Cancel()
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued job returned %v, want context.Canceled", err)
	}
	select {
	case <-queued.Admitted():
		t.Fatal("the canceled job was admitted")
	default:
	}
	if st, queued, running := m.Gate().Stats(); st.Canceled != 1 || queued != 0 || running != 1 {
		t.Fatalf("gate after the cancel: %+v, %d queued, %d running", st, queued, running)
	}

	close(gate)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJobManagerFairnessFIFO submits a burst of jobs through one slot
// and asserts admission follows submission order exactly — no job
// starves behind later arrivals.
func TestJobManagerFairnessFIFO(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/shared", graphgen.Webmap(80, 3, 19))

	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 1})
	defer m.Close()

	// Each job reports in from its first superstep; with one slot the
	// reports come strictly one after another.
	const jobs = 6
	open := make(chan struct{})
	close(open)
	var mu sync.Mutex
	var order []int
	var handles []*JobHandle
	for i := 0; i < jobs; i++ {
		h, err := m.Submit(context.Background(), newGatedJob(fmt.Sprintf("fifo-%d", i), func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}, open))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	waitAll(t, handles)
	for i, got := range order {
		if got != i {
			t.Fatalf("jobs ran in order %v (FIFO violated)", order)
		}
	}
	if len(order) != jobs {
		t.Fatalf("%d of %d jobs ran", len(order), jobs)
	}
}

// TestJobManagerStress is the N jobs x M partitions race stress: many
// small jobs with mixed outcomes (completed and canceled) contending for
// two admission slots on a 2-node x 2-partition cluster.
func TestJobManagerStress(t *testing.T) {
	rt := newTestRuntime(t, 2) // 2 nodes x 2 partitions/node = 4 partitions
	defer rt.Close()
	g := graphgen.Webmap(150, 3, 23)
	putGraph(t, rt, "/in/shared", g)

	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 2})
	defer m.Close()

	const jobs = 10
	var handles []*JobHandle
	for i := 0; i < jobs; i++ {
		var job *pregel.Job
		if i%2 == 0 {
			job = algorithms.NewConnectedComponentsJob(fmt.Sprintf("s-cc-%d", i), "/in/shared", fmt.Sprintf("/out/s%d", i))
		} else {
			job = algorithms.NewPageRankJob(fmt.Sprintf("s-pr-%d", i), "/in/shared", fmt.Sprintf("/out/s%d", i), 2)
		}
		h, err := m.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Cancel two late submissions while the early ones occupy the slots.
	handles[8].Cancel()
	handles[9].Cancel()

	for i, h := range handles[:8] {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	for _, h := range handles[8:] {
		// A cancel can race admission: the job may have finished before
		// the cancel landed. Either end is acceptable; limbo is not.
		if _, err := h.Wait(context.Background()); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled job %s: %v", h.Name(), err)
		}
	}

	wantCC := referenceValues(t, algorithms.NewConnectedComponentsJob("ref", "", ""), g)
	wantPR := referenceValues(t, algorithms.NewPageRankJob("ref", "", "", 2), g)
	for i := 0; i < 8; i++ {
		want := wantCC
		if i%2 == 1 {
			want = wantPR
		}
		compareValues(t, readOutputValues(t, rt, fmt.Sprintf("/out/s%d", i)), want, fmt.Sprintf("stress-%d", i))
	}
}

// TestJobManagerOperatorMemCarve checks that admitted jobs observe the
// per-tenant operator-memory carve rather than the full node budget.
func TestJobManagerOperatorMemCarve(t *testing.T) {
	rt, err := NewRuntime(Options{
		BaseDir:           t.TempDir(),
		Nodes:             2,
		PartitionsPerNode: 1,
		NodeConfig:        hyracks.NodeConfig{RAMBytes: 4 << 20, PageSize: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	g := graphgen.Webmap(300, 4, 29)
	putGraph(t, rt, "/in/shared", g)

	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 4})
	defer m.Close()
	h, err := m.Submit(context.Background(),
		algorithms.NewPageRankJob("carved", "/in/shared", "/out/carved", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	nodeMem := rt.Cluster.Nodes()[0].OperatorMem
	carve := h.OperatorMem()
	if carve <= 0 || carve > nodeMem/4 {
		t.Fatalf("operator-memory carve %d, want in (0, %d]", carve, nodeMem/4)
	}
	want := referenceValues(t, algorithms.NewPageRankJob("ref", "", "", 2), g)
	compareValues(t, readOutputValues(t, rt, "/out/carved"), want, "carved-pr")
}

// TestJobManagerCloseRejectsSubmit checks Close drains and rejects.
func TestJobManagerCloseRejectsSubmit(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/shared", graphgen.Webmap(40, 3, 3))

	m := NewJobManager(rt, JobManagerOptions{MaxConcurrentJobs: 2})
	h, err := m.Submit(context.Background(),
		algorithms.NewConnectedComponentsJob("pre-close", "/in/shared", ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatalf("pre-close job: %v", err)
	}
	m.Close()
	if _, err := m.Submit(context.Background(),
		algorithms.NewConnectedComponentsJob("post-close", "/in/shared", "")); !errors.Is(err, ErrGateClosed) {
		t.Fatalf("submit after close: %v, want ErrGateClosed", err)
	}
}
