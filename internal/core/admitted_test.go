package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pregelix/internal/delta"
	"pregelix/internal/graphgen"
	"pregelix/internal/hyracks"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// admittedRun is one run carried through the serve tier's admission
// sequence in miniature: a ticket taken at submission, then in the
// background Wait, the run under the ticket's carve, and Release.
type admittedRun struct {
	name   string
	ticket *Ticket
	cancel context.CancelFunc
	// began is closed once the ticket holds its slot; done once the run
	// has ended, stats and err written.
	began chan struct{}
	done  chan struct{}
	stats *JobStats
	err   error
}

// admit enters job at g and, once admitted, runs it through
// Runtime.RunAdmitted named "<job.Name>@j<ticket id>", as the serve
// tier names a job.
func admit(g *Gate, rt *Runtime, job *pregel.Job) (*admittedRun, error) {
	return admitAs(g, func(id int64) string { return fmt.Sprintf("%s@j%d", job.Name, id) },
		func(ctx context.Context, name string, opMem int64) (*JobStats, error) {
			named := *job
			named.Name = name
			return rt.RunAdmitted(ctx, &named, opMem)
		})
}

// admitRefresh enters a delta refresh of the sealed version
// fromVersion at g and, once admitted, runs it through
// Runtime.DeltaRefresh named "<fromVersion>@d<seq>".
func admitRefresh(g *Gate, rt *Runtime, job *pregel.Job, fromVersion string, seq uint64, muts []delta.Mutation) (*admittedRun, error) {
	return admitAs(g, func(int64) string { return fmt.Sprintf("%s@d%d", fromVersion, seq) },
		func(ctx context.Context, name string, opMem int64) (*JobStats, error) {
			named := *job
			named.Name = name
			return rt.DeltaRefresh(ctx, &named, fromVersion, muts, opMem)
		})
}

// admitAs takes a ticket at g now and, once it holds a slot, runs run
// under the ticket's carve as name(ticket id), then releases the slot.
func admitAs(g *Gate, name func(id int64) string, run func(ctx context.Context, name string, opMem int64) (*JobStats, error)) (*admittedRun, error) {
	ticket, err := g.Enter()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	a := &admittedRun{name: name(ticket.ID()), ticket: ticket, cancel: cancel,
		began: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(a.done)
		defer cancel()
		if a.err = ticket.Wait(ctx); a.err != nil {
			return
		}
		close(a.began)
		a.stats, a.err = run(ctx, a.name, ticket.OperatorMem())
		ticket.Release(a.err)
	}()
	return a, nil
}

// Name is the run's execution name, the version its seal carries.
func (a *admittedRun) Name() string { return a.name }

// Cancel ends the run's context, queued or running.
func (a *admittedRun) Cancel() { a.cancel() }

// Wait blocks until the run has ended (or ctx has).
func (a *admittedRun) Wait(ctx context.Context) (*JobStats, error) {
	select {
	case <-a.done:
		return a.stats, a.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

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

// waitAll blocks until every run has finished and fails the test on
// the first error.
func waitAll(t *testing.T, handles []*admittedRun) {
	t.Helper()
	for _, h := range handles {
		if _, err := h.Wait(context.Background()); err != nil {
			t.Fatalf("job %s: %v", h.Name(), err)
		}
	}
}

// TestAdmittedFourJobsRunConcurrently is the acceptance scenario: six
// jobs submitted against one shared cluster with a 4-slot admission
// bound; four run concurrently (all provably mid-superstep at the same
// instant) while the other two wait in the queue, then everything
// drains.
func TestAdmittedFourJobsRunConcurrently(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/shared", graphgen.Webmap(60, 3, 7))

	adm := NewGate(rt.Cluster, 4)
	defer adm.Close()

	const jobs = 6
	arrivals := make(chan string, jobs)
	gate := make(chan struct{})
	var handles []*admittedRun
	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("gated-%d", i)
		h, err := admit(adm, rt, newGatedJob(name, func() { arrivals <- name }, gate))
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
	if _, queued, running := adm.Stats(); queued != 2 || running != 4 {
		t.Fatalf("gate reports %d queued and %d running, want 2 and 4", queued, running)
	}

	close(gate)
	waitAll(t, handles)
	stats, _, _ := adm.Stats()
	if stats.Completed != jobs {
		t.Fatalf("completed %d jobs, want %d", stats.Completed, jobs)
	}
	if stats.PeakRunning != 4 {
		t.Fatalf("peak running %d, want 4", stats.PeakRunning)
	}
}

// TestAdmittedResultsMatchSequential checks the isolation contract:
// jobs crammed through a 2-slot admission bound on one shared cluster
// must produce byte-identical results to sequential oracle execution.
func TestAdmittedResultsMatchSequential(t *testing.T) {
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

	adm := NewGate(rt.Cluster, 2)
	defer adm.Close()
	var handles []*admittedRun
	for _, w := range workloads {
		h, err := admit(adm, rt, w.mk(w.name, "/out/"+w.name))
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
	stats, _, _ := adm.Stats()
	if stats.PeakRunning > 2 {
		t.Fatalf("admission bound violated: peak running %d > 2", stats.PeakRunning)
	}
	if stats.Completed != int64(len(workloads)) {
		t.Fatalf("completed %d, want %d", stats.Completed, len(workloads))
	}
}

// TestAdmittedCancelMidSuperstep cancels a long-running job between
// supersteps and checks the cancellation is clean: the victim reports
// canceled, the shared cluster stays healthy, and a concurrent job
// finishes normally.
func TestAdmittedCancelMidSuperstep(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	g := graphgen.Webmap(200, 4, 13)
	putGraph(t, rt, "/in/shared", g)

	adm := NewGate(rt.Cluster, 2)
	defer adm.Close()

	victim, err := admit(adm, rt,
		algorithms.NewPageRankJob("long-pr", "/in/shared", "/out/long", 10000))
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := admit(adm, rt,
		algorithms.NewConnectedComponentsJob("cc", "/in/shared", "/out/cc"))
	if err != nil {
		t.Fatal(err)
	}

	// Let the victim run a little so the cancel lands mid-run, not
	// pre-admission.
	select {
	case <-victim.began:
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

	stats, _, _ := adm.Stats()
	if stats.Canceled != 1 || stats.Completed != 1 {
		t.Fatalf("gate stats %+v, want 1 canceled + 1 completed", stats)
	}
}

// TestAdmittedCancelQueued cancels a job that never left the queue.
func TestAdmittedCancelQueued(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/shared", graphgen.Webmap(50, 3, 5))

	adm := NewGate(rt.Cluster, 1)
	defer adm.Close()

	gate := make(chan struct{})
	arrived := make(chan struct{}, 1)
	blocker, err := admit(adm, rt,
		newGatedJob("blocker", func() { arrived <- struct{}{} }, gate))
	if err != nil {
		t.Fatal(err)
	}
	<-arrived // blocker holds the only slot mid-superstep

	queued, err := admit(adm, rt,
		algorithms.NewConnectedComponentsJob("queued-cc", "/in/shared", "/out/qcc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, queued, _ := adm.Stats(); queued != 1 {
		t.Fatalf("%d jobs queued behind the blocker, want 1", queued)
	}
	queued.Cancel()
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued job returned %v, want context.Canceled", err)
	}
	select {
	case <-queued.began:
		t.Fatal("the canceled job was admitted")
	default:
	}
	if st, queued, running := adm.Stats(); st.Canceled != 1 || queued != 0 || running != 1 {
		t.Fatalf("gate after the cancel: %+v, %d queued, %d running", st, queued, running)
	}

	close(gate)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestAdmittedFairnessFIFO submits a burst of jobs through one slot
// and asserts admission follows submission order exactly — no job
// starves behind later arrivals.
func TestAdmittedFairnessFIFO(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	putGraph(t, rt, "/in/shared", graphgen.Webmap(80, 3, 19))

	adm := NewGate(rt.Cluster, 1)
	defer adm.Close()

	// Each job reports in from its first superstep; with one slot the
	// reports come strictly one after another.
	const jobs = 6
	open := make(chan struct{})
	close(open)
	var mu sync.Mutex
	var order []int
	var handles []*admittedRun
	for i := 0; i < jobs; i++ {
		h, err := admit(adm, rt, newGatedJob(fmt.Sprintf("fifo-%d", i), func() {
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

// TestAdmittedStress is the N jobs x M partitions race stress: many
// small jobs with mixed outcomes (completed and canceled) contending for
// two admission slots on a 2-node x 2-partition cluster.
func TestAdmittedStress(t *testing.T) {
	rt := newTestRuntime(t, 2) // 2 nodes x 2 partitions/node = 4 partitions
	defer rt.Close()
	g := graphgen.Webmap(150, 3, 23)
	putGraph(t, rt, "/in/shared", g)

	adm := NewGate(rt.Cluster, 2)
	defer adm.Close()

	const jobs = 10
	var handles []*admittedRun
	for i := 0; i < jobs; i++ {
		var job *pregel.Job
		if i%2 == 0 {
			job = algorithms.NewConnectedComponentsJob(fmt.Sprintf("s-cc-%d", i), "/in/shared", fmt.Sprintf("/out/s%d", i))
		} else {
			job = algorithms.NewPageRankJob(fmt.Sprintf("s-pr-%d", i), "/in/shared", fmt.Sprintf("/out/s%d", i), 2)
		}
		h, err := admit(adm, rt, job)
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

// TestAdmittedOperatorMemCarve checks that admitted jobs observe the
// per-tenant operator-memory carve rather than the full node budget.
func TestAdmittedOperatorMemCarve(t *testing.T) {
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

	adm := NewGate(rt.Cluster, 4)
	defer adm.Close()
	h, err := admit(adm, rt,
		algorithms.NewPageRankJob("carved", "/in/shared", "/out/carved", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	nodeMem := rt.Cluster.Nodes()[0].OperatorMem
	carve := h.ticket.OperatorMem()
	if carve <= 0 || carve > nodeMem/4 {
		t.Fatalf("operator-memory carve %d, want in (0, %d]", carve, nodeMem/4)
	}
	want := referenceValues(t, algorithms.NewPageRankJob("ref", "", "", 2), g)
	compareValues(t, readOutputValues(t, rt, "/out/carved"), want, "carved-pr")
}

// TestRunAdmittedSweepsOnlyItsOwnDir: a failed admitted run reclaims
// its scratch directory on every node and nothing beside it, whatever
// its name holds.
func TestRunAdmittedSweepsOnlyItsOwnDir(t *testing.T) {
	rt := newTestRuntime(t, 2)
	defer rt.Close()
	for _, name := range []string{"", ".", "..", "a/../.."} {
		var keep []string
		for _, n := range rt.Cluster.Nodes() {
			path := filepath.Join(n.Dir, "keep")
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			keep = append(keep, path)
		}
		job := algorithms.NewConnectedComponentsJob(name, "/in/missing", "")
		if _, err := rt.RunAdmitted(context.Background(), job, 0); err == nil {
			t.Fatalf("job %q on a missing input succeeded", name)
		}
		for _, path := range keep {
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("the sweep of job %q removed %s: %v", name, path, err)
			}
		}
	}
}
