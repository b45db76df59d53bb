package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"pregelix/pregel"
)

// moverCase is one kind of migration on a cluster of scripted peers: who
// founds the cluster, which peer the faults are injected at, and how the
// migration is triggered once the test holds the job slot.
type moverCase struct {
	kind     string
	failed   string // the kind a refusal of it is logged under
	founding []int  // nodes per founding peer a, b, c…
	donor    string // a peer that is asked for images
	receiver string // a peer that is asked to install them
	// receiverIsMember is false for a scale-out, whose receiver only
	// becomes a member at the commit: its death is not a member's.
	receiverIsMember bool
	// dropped lists the peers whose originals a committed migration
	// reclaims: its donors, unless they leave with the commit.
	dropped []string
	trigger func(c *Coordinator, run *jobRun) error
}

var moverCases = []moverCase{
	{
		kind: "scale-out", failed: "scale-failed", founding: []int{3, 3}, donor: "a", receiver: "j", dropped: []string{"a", "b"},
		trigger: func(c *Coordinator, run *jobRun) error {
			return c.rebalance(context.Background(), run)
		},
	},
	{
		kind: "drain", failed: "drain-failed", founding: []int{2, 2, 2}, donor: "c", receiver: "b", receiverIsMember: true,
		trigger: func(c *Coordinator, run *jobRun) error {
			c.requestDrain(c.workerAt("c"))
			return c.rebalance(context.Background(), run)
		},
	},
	{
		kind: "relief", failed: "relief-failed", founding: []int{2, 2}, donor: "a", receiver: "b", receiverIsMember: true, dropped: []string{"a"},
		trigger: func(c *Coordinator, run *jobRun) error {
			_, err := c.relieveWorker(context.Background(), run, c.workerAt("a").ctrl.RemoteAddr())
			return err
		},
	},
}

// clusterShape is everything a migration commits; an aborted one must
// leave it as it found it.
type clusterShape struct {
	topology   []WorkerInfo
	peers      map[string]string
	attempt    int64
	rebalances int
}

func shapeOf(c *Coordinator, run *jobRun) clusterShape {
	c.mu.Lock()
	peers := c.peersLocked()
	c.mu.Unlock()
	return clusterShape{topology: c.Topology(), peers: peers, attempt: run.attempt, rebalances: run.stats.Rebalances}
}

// startMoverCluster assembles a coordinator over scripted peers, takes
// the job slot the way a running job holds it (so the idle rebalancer
// stays out of the way) and opens a run for migrations to be carried
// across. A scale-out's elastic joiner "j" is parked as well.
func startMoverCluster(t *testing.T, mc moverCase) (*Coordinator, map[string]*scriptedPeer, *peerLog, *jobRun) {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{ListenAddr: "127.0.0.1:0", Workers: len(mc.founding)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	log := &peerLog{}
	peers := make(map[string]*scriptedPeer)
	for i, nodes := range mc.founding {
		name := string(rune('a' + i))
		peers[name] = startScriptedPeer(t, coord, name, nodes, false, log)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	coord.jobMu.Lock()
	t.Cleanup(coord.jobMu.Unlock)
	if mc.kind == "scale-out" {
		peers["j"] = startScriptedPeer(t, coord, "j", 1, true, log)
	}
	run := coord.newRun("mv@j1", json.RawMessage(`{}`), &pregel.Job{}, nil)
	// An input the members already hold: only a new member lacks it.
	coord.shipped["/in/g"] = 42
	return coord, peers, log, run
}

// firstLast returns the positions of the first and last call of method
// in the log (-1, -1 when there is none).
func firstLast(calls []peerCall, method string) (first, last int) {
	first, last = -1, -1
	for i, c := range calls {
		if c.method == method {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	return first, last
}

// TestMoverCommitted runs each kind of migration to its commit and
// checks the one order every kind shares — image → install → commit →
// reconfigure → drop → next epoch — and that only a movement that makes
// a new process a member forgets which inputs the workers hold.
func TestMoverCommitted(t *testing.T) {
	for _, mc := range moverCases {
		t.Run(mc.kind, func(t *testing.T) {
			coord, _, log, run := startMoverCluster(t, mc)
			before := shapeOf(coord, run)
			if err := mc.trigger(coord, run); err != nil {
				t.Fatal(err)
			}
			if n, parts := countRebalance(coord, mc.kind); n != 1 || parts == 0 {
				t.Fatalf("want one %s event with migrated partitions: %+v", mc.kind, coord.RebalanceEvents())
			}
			after := shapeOf(coord, run)
			if after.attempt != 1 || after.rebalances != 1 {
				t.Fatalf("attempt=%d rebalances=%d after a committed %s, want 1 and 1", after.attempt, after.rebalances, mc.kind)
			}
			if reflect.DeepEqual(before.topology, after.topology) || reflect.DeepEqual(before.peers, after.peers) {
				t.Fatalf("committed %s moved nothing: %+v", mc.kind, after.topology)
			}

			calls := log.snapshot()
			_, lastSend := firstLast(calls, rpcPartSend)
			firstRecv, lastRecv := firstLast(calls, rpcPartRecv)
			firstConf, lastConf := firstLast(calls, rpcReconfigure)
			if lastSend < 0 || firstRecv < lastSend || firstConf < lastRecv {
				t.Fatalf("verbs out of order (want every send < recv < reconfigure < drop): %v", methodsOf(calls))
			}
			var dropped []string
			for i, call := range calls {
				if call.method == rpcPartDrop {
					dropped = append(dropped, call.peer)
					if i < lastConf {
						t.Fatalf("an original was dropped before the topology flip reached everyone: %v", methodsOf(calls))
					}
				}
			}
			sort.Strings(dropped)
			if !reflect.DeepEqual(dropped, mc.dropped) {
				t.Fatalf("originals dropped on %v, want %v", dropped, mc.dropped)
			}
			// The reconfigure broadcast carries the committed ownership, and
			// every install ran under the epoch the commit then opened.
			owned := make(map[string][]string)
			for _, w := range after.topology {
				owned[w.DataAddr] = w.Nodes
			}
			for _, call := range calls {
				switch call.method {
				case rpcReconfigure:
					var msg reconfigureMsg
					if err := json.Unmarshal(call.data, &msg); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(msg.Owned, owned[call.peer]) || !reflect.DeepEqual(msg.Peers, after.peers) {
						t.Fatalf("%s was reconfigured to %v, the commit says %v", call.peer, msg.Owned, owned[call.peer])
					}
				case rpcPartRecv:
					var msg partRecvMsg
					if err := json.Unmarshal(call.data, &msg); err != nil {
						t.Fatal(err)
					}
					if msg.Attempt != 1 || len(msg.Parts) == 0 {
						t.Fatalf("install on %s: attempt %d with %d images", call.peer, msg.Attempt, len(msg.Parts))
					}
				}
			}
			wantShipped := 1
			if mc.kind == "scale-out" {
				wantShipped = 0 // the joiner has none of the replicated inputs
			}
			if len(coord.shipped) != wantShipped {
				t.Fatalf("%d inputs remembered as shipped after a %s, want %d", len(coord.shipped), mc.kind, wantShipped)
			}
		})
	}
}

func methodsOf(calls []peerCall) []string {
	out := make([]string, len(calls))
	for i, c := range calls {
		out[i] = c.peer + ":" + c.method
	}
	return out
}

// TestMoverFailures is the abort-path table: each kind of migration
// against each way its data phase can fail. A refusal leaves the
// cluster exactly as it was, records the kind's -failed event and
// reclaims the copies made: every peer that was sent an install is sent
// a drop. A member's death returns an error the driver's restore takes
// for a machine loss.
func TestMoverFailures(t *testing.T) {
	faults := []struct {
		name string
		arm  func(mc moverCase, peers map[string]*scriptedPeer)
		// lost reports whether the fault kills a member of the cluster.
		lost func(mc moverCase) bool
	}{
		{
			name: "donor-refuses-image",
			arm: func(mc moverCase, peers map[string]*scriptedPeer) {
				peers[mc.donor].fail[rpcPartSend] = errors.New("core: job mv@j1 already has a phase in flight")
			},
			lost: func(moverCase) bool { return false },
		},
		{
			name: "receiver-refuses-install-part-way",
			arm: func(mc moverCase, peers map[string]*scriptedPeer) {
				peers[mc.receiver].fail[rpcPartRecv] = errors.New("core: installing mv@j1 partition 5: disk full")
			},
			lost: func(moverCase) bool { return false },
		},
		{
			name: "receiver-dies-at-install",
			arm:  func(mc moverCase, peers map[string]*scriptedPeer) { peers[mc.receiver].die[rpcPartRecv] = true },
			lost: func(mc moverCase) bool { return mc.receiverIsMember },
		},
		{
			name: "donor-dies-at-image",
			arm:  func(mc moverCase, peers map[string]*scriptedPeer) { peers[mc.donor].die[rpcPartSend] = true },
			lost: func(moverCase) bool { return true },
		},
	}
	for _, mc := range moverCases {
		for _, fault := range faults {
			t.Run(mc.kind+"/"+fault.name, func(t *testing.T) {
				coord, peers, log, run := startMoverCluster(t, mc)
				before := shapeOf(coord, run)
				fault.arm(mc, peers)
				err := mc.trigger(coord, run)
				calls := log.snapshot()
				if first, _ := firstLast(calls, rpcReconfigure); first >= 0 {
					t.Fatalf("a failed %s reconfigured the cluster: %v", mc.kind, methodsOf(calls))
				}

				if fault.lost(mc) {
					if err == nil {
						t.Fatalf("a member died during the %s and no error came back", mc.kind)
					}
					if run.attempt != 0 || run.stats.Rebalances != 0 {
						t.Fatalf("attempt=%d rebalances=%d after a failed %s", run.attempt, run.stats.Rebalances, mc.kind)
					}
					_, rerr := (&clusterPhases{c: coord}).restore(context.Background(), run, err)
					if !errors.Is(rerr, errNoCheckpoint) {
						t.Fatalf("restore took %v for %v, want a worker loss refused for want of a checkpoint", err, rerr)
					}
					return
				}

				if err != nil {
					t.Fatalf("a refused %s must be absorbed, got %v", mc.kind, err)
				}
				if after := shapeOf(coord, run); !reflect.DeepEqual(before, after) {
					t.Fatalf("a refused %s changed the cluster:\n before %+v\n after  %+v", mc.kind, before, after)
				}
				if n, _ := countRebalance(coord, mc.failed); n != 1 {
					t.Fatalf("want one %s event: %+v", mc.failed, coord.RebalanceEvents())
				}
				if len(coord.shipped) != 1 {
					t.Fatal("a refused migration forgot which inputs the workers hold")
				}
				// Every copy made is reclaimed.
				for name, p := range peers {
					if p.die[rpcPartRecv] {
						continue // a dead receiver's copies went with it
					}
					recv, drop := -1, -1
					for i, call := range calls {
						if call.peer != name {
							continue
						}
						if call.method == rpcPartRecv {
							recv = i
						} else if call.method == rpcPartDrop {
							drop = i
						}
					}
					if recv >= 0 && drop < recv {
						t.Errorf("peer %s was sent an install and never a drop: %v", name, methodsOf(calls))
					}
					if recv < 0 && drop >= 0 {
						t.Errorf("peer %s was sent a drop for nothing: %v", name, methodsOf(calls))
					}
				}
				if fault.name != "donor-refuses-image" {
					if first, _ := firstLast(calls, rpcPartRecv); first < 0 {
						t.Fatalf("the fault never fired: %v", methodsOf(calls))
					}
				}
				if mc.kind == "drain" && coord.workerAt("c").draining.Load() {
					t.Error("a refused drain stayed pending")
				}
				if mc.kind == "scale-out" {
					if coord.workerAt("j") != nil {
						t.Error("the joiner of a refused scale-out is still parked or active")
					}
				}
			})
		}
	}
}

// TestSplitAbandonedWithdrawsTheTable: a hot-partition split announces
// the grown split table to every worker before it can know the children
// will land. When an owner then refuses its child images, abandoning the
// split must take the announcement back — every worker is sent the old
// split list again under the old epoch and shrinks its table, dropping
// the child copies — or the next checkpoint would image a table the
// coordinator never committed.
func TestSplitAbandonedWithdrawsTheTable(t *testing.T) {
	mc := moverCase{kind: "split", founding: []int{2, 2}}
	coord, peers, log, run := startMoverCluster(t, mc)
	peers["b"].fail[rpcPartRecv] = errors.New("core: installing mv@j1 partition 5: disk full")
	committed, err := coord.splitPartition(context.Background(), run, SplitDecision{Parent: 0, Children: 2})
	if err != nil || committed {
		t.Fatalf("refused split: committed=%v err=%v, want an absorbed refusal", committed, err)
	}
	if n := countAdaptive(coord, "split-failed"); n != 1 || len(run.splits) != 0 || run.attempt != 0 {
		t.Fatalf("split-failed events=%d splits=%v attempt=%d", n, run.splits, run.attempt)
	}
	// The last partition.recv each peer saw is the withdrawal.
	last := make(map[string]partRecvMsg)
	for _, call := range log.snapshot() {
		if call.method == rpcPartRecv {
			var msg partRecvMsg
			if err := json.Unmarshal(call.data, &msg); err != nil {
				t.Fatal(err)
			}
			last[call.peer] = msg
		}
	}
	for _, name := range []string{"a", "b"} {
		msg, ok := last[name]
		if !ok || len(msg.Splits) != 0 || len(msg.Parts) != 0 || msg.Attempt != 0 {
			t.Errorf("peer %s was left on the announced table: last partition.recv %+v (seen: %v)", name, msg, ok)
		}
	}
}
