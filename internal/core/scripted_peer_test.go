package core

import (
	"encoding/json"
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
// crashed worker does.
type scriptedPeer struct {
	name string // also its data address, which is how tests find its ccWorker
	ctrl *wire.ControlConn
	log  *peerLog

	mu    sync.Mutex
	reply map[string]any
	fail  map[string]error
	die   map[string]bool
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
	p := &scriptedPeer{name: name, ctrl: ctrl, log: log, reply: map[string]any{}, fail: map[string]error{}, die: map[string]bool{}}
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
