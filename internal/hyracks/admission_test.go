package hyracks_test

// Job admission over a hyracks cluster. The gate itself is core.Gate —
// it belongs to whoever runs jobs (the serve tier, the conc-jobs
// experiment), not to the dataflow engine — but what it divides is this
// package's: the operator memory of the cluster's live node
// controllers. The tests stay here, under the names they have always
// had, and drive the gate against a real Cluster.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/hyracks"
)

func schedCluster(t *testing.T, nodes int, cfg hyracks.NodeConfig) *hyracks.Cluster {
	t.Helper()
	c, err := hyracks.NewCluster(t.TempDir(), nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// enter takes a ticket and fails the test if the gate refuses it.
func enter(t *testing.T, g *core.Gate) *core.Ticket {
	t.Helper()
	tk, err := g.Enter()
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

// admitted takes a ticket that must get a slot at once.
func admitted(t *testing.T, g *core.Gate) *core.Ticket {
	t.Helper()
	tk := enter(t, g)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tk.Wait(ctx); err != nil {
		t.Fatalf("ticket %d not admitted: %v", tk.ID(), err)
	}
	return tk
}

// TestSchedulerBoundsConcurrency hammers the gate with many short jobs
// and asserts the in-flight bound is never violated. No job ends before
// every ticket is in, so that all but the first three queue.
func TestSchedulerBoundsConcurrency(t *testing.T) {
	g := core.NewGate(schedCluster(t, 2, hyracks.NodeConfig{}), 3)

	const jobs = 40
	var running, peak atomic.Int64
	var wg sync.WaitGroup
	allIn := make(chan struct{})
	for i := 0; i < jobs; i++ {
		tk := enter(t, g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := tk.Wait(context.Background()); err != nil {
				t.Error(err)
				return
			}
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			<-allIn
			time.Sleep(time.Millisecond)
			running.Add(-1)
			tk.Release(nil)
		}()
	}
	close(allIn)
	wg.Wait()
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent jobs, bound is 3", p)
	}
	st, queued, holding := g.Stats()
	if st.Completed != jobs || st.Submitted != jobs {
		t.Fatalf("stats %+v, want %d submitted+completed", st, jobs)
	}
	if st.PeakRunning != 3 || st.PeakQueued != jobs-3 {
		t.Fatalf("stats %+v, want peaks of 3 running and %d queued", st, jobs-3)
	}
	if queued != 0 || holding != 0 {
		t.Fatalf("drained gate reports %d queued, %d running", queued, holding)
	}
}

// TestSchedulerFIFOOrder asserts tickets are admitted in exact
// submission order, through one slot and through several.
func TestSchedulerFIFOOrder(t *testing.T) {
	for _, slots := range []int{1, 3} {
		g := core.NewGate(schedCluster(t, 1, hyracks.NodeConfig{}), slots)

		const jobs = 16
		var tickets []*core.Ticket
		for i := 0; i < jobs; i++ {
			tickets = append(tickets, enter(t, g))
		}
		// With tickets 0..i-1 released, exactly the tickets up to
		// i+slots-1 have been admitted (an admitted ticket has its carve).
		for i, tk := range tickets {
			if err := tk.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			for j, other := range tickets {
				if got, want := other.OperatorMem() != 0, j < i+slots; got != want {
					t.Fatalf("%d slots, tickets before %d released: ticket %d admitted = %v", slots, i, j, got)
				}
			}
			tk.Release(nil)
		}
	}
}

// TestSchedulerCancelQueued: a queued waiter whose context is canceled
// leaves without ever holding a slot, and the ticket behind it is
// admitted in its place.
func TestSchedulerCancelQueued(t *testing.T) {
	g := core.NewGate(schedCluster(t, 1, hyracks.NodeConfig{}), 1)

	head := admitted(t, g)
	waiting, behind := enter(t, g), enter(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- waiting.Wait(ctx) }()
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}
	if st, queued, _ := g.Stats(); st.Canceled != 1 || st.PeakRunning != 1 || queued != 1 || waiting.OperatorMem() != 0 {
		t.Fatalf("after the cancel: stats %+v, %d queued, carve %d", st, queued, waiting.OperatorMem())
	}
	head.Release(nil)
	if err := behind.Wait(context.Background()); err != nil {
		t.Fatalf("the ticket behind the canceled one: %v", err)
	}
	behind.Release(nil)
	if st, _, _ := g.Stats(); st.Canceled != 1 || st.Completed != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSchedulerCancelRunning: canceling a running job is its run's
// context ending; the gate only hears the outcome, and a second Release
// changes nothing.
func TestSchedulerCancelRunning(t *testing.T) {
	g := core.NewGate(schedCluster(t, 1, hyracks.NodeConfig{}), 1)

	tk := admitted(t, g)
	tk.Release(context.Canceled)
	tk.Release(nil)
	failed := admitted(t, g)
	failed.Release(errors.New("boom"))
	if st, _, running := g.Stats(); st.Canceled != 1 || st.Failed != 1 || st.Completed != 0 || running != 0 {
		t.Fatalf("stats %+v, %d running", st, running)
	}
}

// TestSchedulerAwaitContextTimeout checks a queued ticket abandons the
// queue when its caller's context expires, freeing the head for others.
func TestSchedulerAwaitContextTimeout(t *testing.T) {
	g := core.NewGate(schedCluster(t, 1, hyracks.NodeConfig{}), 1)

	head := admitted(t, g)
	waiting := enter(t, g)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := waiting.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait returned %v, want deadline exceeded", err)
	}
	if _, queued, _ := g.Stats(); queued != 0 {
		t.Fatalf("abandoned ticket still queued")
	}
	head.Release(nil)
}

// TestSchedulerOperatorMemCarve checks the shared-RAM division, taken
// from the nodes that are live when the ticket is admitted.
func TestSchedulerOperatorMemCarve(t *testing.T) {
	// RAM 16 MiB => default node operator budget 1 MiB; 4 slots => 256 KiB.
	c := schedCluster(t, 2, hyracks.NodeConfig{RAMBytes: 16 << 20})
	g := core.NewGate(c, 4)
	tk := admitted(t, g)
	if got, want := tk.OperatorMem(), int64(256<<10); got != want {
		t.Fatalf("carve %d, want %d", got, want)
	}
	tk.Release(nil)

	// The smallest live node sets the carve; blacklisted, it no longer does.
	small := c.Nodes()[0]
	small.OperatorMem = 512 << 10
	tk = admitted(t, g)
	if got, want := tk.OperatorMem(), int64(128<<10); got != want {
		t.Fatalf("carve with a 512 KiB node live %d, want %d", got, want)
	}
	tk.Release(nil)
	c.Blacklist(small.ID)
	tk = admitted(t, g)
	if got, want := tk.OperatorMem(), int64(256<<10); got != want {
		t.Fatalf("carve after blacklisting the small node %d, want %d", got, want)
	}
	tk.Release(nil)

	// Floored at 64 KiB; nothing to carve without a cluster.
	lone := schedCluster(t, 1, hyracks.NodeConfig{})
	lone.Nodes()[0].OperatorMem = 100 << 10
	tk = admitted(t, core.NewGate(lone, 4))
	if got, want := tk.OperatorMem(), int64(64<<10); got != want {
		t.Fatalf("floored carve %d, want %d", got, want)
	}
	if got := admitted(t, core.NewGate(nil, 1)).OperatorMem(); got != 0 {
		t.Fatalf("carve %d at a gate with no cluster, want 0", got)
	}
}

// TestSchedulerClose checks queued tickets fail and submissions are
// rejected after Close, while a running job can still release.
func TestSchedulerClose(t *testing.T) {
	g := core.NewGate(schedCluster(t, 1, hyracks.NodeConfig{}), 1)

	running := admitted(t, g)
	queued := enter(t, g)
	g.Close()
	if err := queued.Wait(context.Background()); !errors.Is(err, core.ErrGateClosed) {
		t.Fatalf("queued ticket after Close: %v, want ErrGateClosed", err)
	}
	if _, err := g.Enter(); !errors.Is(err, core.ErrGateClosed) {
		t.Fatalf("Enter after Close: %v", err)
	}
	running.Release(nil)
	if st, queued, running := g.Stats(); st.Completed != 1 || st.Canceled != 1 || queued != 0 || running != 0 {
		t.Fatalf("stats %+v, %d queued, %d running", st, queued, running)
	}
}
