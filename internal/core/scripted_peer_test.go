package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pregelix/internal/wire"
)

// peerCall is one control-plane request a scripted peer received.
type peerCall struct {
	peer, method string
	data         json.RawMessage
}

// peerLog is the ordered record of every request a test's scripted peers
// received (probes excepted), across all of them.
type peerLog struct {
	mu    sync.Mutex
	calls []peerCall
}

func (l *peerLog) add(c peerCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *peerLog) snapshot() []peerCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]peerCall(nil), l.calls...)
}

// scriptedPeer is a control-plane peer with no engine behind it — the
// control-plane twin of jobrun_test.go's fakePhases. It dials the
// coordinator and registers like a worker, then answers every verb from
// a script: by default partition.send returns an empty image per named
// partition and everything else succeeds with no reply; reply gives a
// verb something to answer with, fail makes a verb answer with an error
// and die makes it drop the connection instead of answering, the way a
// crashed worker does; hold makes a verb wait until its channel closes
// before it does any of that.
type scriptedPeer struct {
	name string // also its data address, which is how tests find its ccWorker
	ctrl *wire.ControlConn
	log  *peerLog

	mu    sync.Mutex
	reply map[string]any
	fail  map[string]error
	die   map[string]bool
	hold  map[string]chan struct{}
}

// startScriptedPeer registers one scripted peer and waits until the
// coordinator has taken the registration, so a test that starts several
// gets them in that order (node IDs are assigned in it).
func startScriptedPeer(t *testing.T, coord *Coordinator, name string, nodes int, elastic bool, log *peerLog) *scriptedPeer {
	t.Helper()
	return registerScriptedPeer(t, coord, registerMsg{DataAddr: name, Nodes: nodes, Elastic: elastic}, log)
}

// registerScriptedPeer is startScriptedPeer with the whole registration
// given; its data address names the peer.
func registerScriptedPeer(t *testing.T, coord *Coordinator, regMsg registerMsg, log *peerLog) *scriptedPeer {
	t.Helper()
	name := regMsg.DataAddr
	ctrl, err := wire.DialControl(coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	p := &scriptedPeer{name: name, ctrl: ctrl, log: log, reply: map[string]any{}, fail: map[string]error{}, die: map[string]bool{}, hold: map[string]chan struct{}{}}
	reg, _ := json.Marshal(regMsg)
	if err := ctrl.Send(wire.Envelope{ID: 1, Method: "register", Data: reg}); err != nil {
		t.Fatal(err)
	}
	go func() {
		// The handshake answer arrives once the cluster assembles or, for
		// a peer parked as a spare, once it is adopted or absorbed.
		if env, err := ctrl.Read(); err != nil || env.Error != "" {
			return
		}
		wire.ServeControl(ctrl, p.handle)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for coord.workerAt(name) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never registered peer %s", name)
		}
		time.Sleep(time.Millisecond)
	}
	return p
}

func (p *scriptedPeer) handle(method string, data json.RawMessage) (any, error) {
	if method != rpcHeartbeat && method != rpcPing {
		p.log.add(peerCall{peer: p.name, method: method, data: data})
	}
	p.mu.Lock()
	hold := p.hold[method]
	p.mu.Unlock()
	if hold != nil {
		<-hold
	}
	p.mu.Lock()
	reply, err, die := p.reply[method], p.fail[method], p.die[method]
	p.mu.Unlock()
	if die {
		p.ctrl.Close()
		return nil, nil
	}
	if err != nil || reply != nil {
		return reply, err
	}
	if method == rpcPartSend {
		var msg partSendMsg
		if err := json.Unmarshal(data, &msg); err != nil {
			return nil, err
		}
		reply := &partSendReply{Parts: []ckptPartData{}}
		for _, part := range msg.Parts {
			reply.Parts = append(reply.Parts, ckptPartData{Part: part})
		}
		return reply, nil
	}
	return nil, nil
}

// workerAt finds the coordinator's handle on the worker registered with
// the given data address, wherever it currently is: still registering,
// active, or parked as a spare.
func (c *Coordinator) workerAt(dataAddr string) *ccWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ws := range [][]*ccWorker{c.pending, c.workers, c.spares} {
		for _, w := range ws {
			if w.dataAddr == dataAddr {
				return w
			}
		}
	}
	return nil
}

// TestPhaseCallNamesTheDeadWorker: a worker dies in the middle of a
// phase, and the survivor, whose phase the death canceled under it,
// answers "context canceled" before the dead worker's connection error
// comes in. The phase's failure must name the dead worker, not the
// survivor that answered first.
func TestPhaseCallNamesTheDeadWorker(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{ListenAddr: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	log := &peerLog{}
	survivor := startScriptedPeer(t, coord, "a", 1, false, log)
	dying := startScriptedPeer(t, coord, "b", 1, false, log)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}
	want := "worker " + coord.workerAt("b").ctrl.RemoteAddr() + ": "

	survivor.mu.Lock()
	survivor.fail[rpcSuperstep] = errors.New("core: pr@j1 superstep 4: context canceled")
	survivor.mu.Unlock()
	release := make(chan struct{})
	dying.mu.Lock()
	dying.hold[rpcSuperstep], dying.die[rpcSuperstep] = release, true
	dying.mu.Unlock()
	// The dying worker drops its connection once the survivor's failure
	// is in, which the cancellation wave it starts shows.
	go func() {
		defer close(release)
		for ctx.Err() == nil {
			for _, c := range log.snapshot() {
				if c.method == rpcJobCancel {
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	_, err = phaseCall[struct{}](ctx, coord, "pr@j1", rpcSuperstep, struct{}{})
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("the phase failed with %v, want the dead worker's failure (%q...)", err, want)
	}
}
