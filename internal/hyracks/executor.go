package hyracks

import (
	"context"
	"fmt"
	"strconv"
	"sync"
)

// JobResult carries post-run information for the statistics collector.
type JobResult struct {
	// ConnStats maps "from->to" connector labels to traffic statistics.
	// Each process counts the frames its own sender tasks flushed, so on
	// a multi-process run the cluster-wide totals are the sum over
	// participants. Every round of a Plan counts into fresh ones.
	ConnStats map[string]*ConnStats
}

// RunJob executes the job DAG on the cluster in-process and blocks until
// completion: every task runs in this process and connector streams are
// Go channels. The first task error cancels the whole job and is
// returned.
func RunJob(ctx context.Context, cluster *Cluster, spec *JobSpec) (*JobResult, error) {
	return RunJobWith(ctx, cluster, spec, ExecOptions{})
}

// RunJobWith executes the local share of the job DAG: tasks whose
// assigned node is in opts.LocalNodes run here; connector streams are
// carried by opts.Transport, which routes frames to tasks hosted by
// other processes. Multi-process execution runs RunJobWith with the same
// spec on every participant — the schedule is deterministic, so they
// agree on placement — and returns when the local tasks are done. It is
// the one-shot form of a Plan: prepare, one round under the spec's name,
// close.
func RunJobWith(ctx context.Context, cluster *Cluster, spec *JobSpec, opts ExecOptions) (*JobResult, error) {
	p, err := Prepare(cluster, spec, opts)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	p.once = true
	return p.Run(ctx, spec.Name)
}

// Plan is a job made ready to run any number of rounds. Prepare
// validates and schedules it, indexes its connectors and builds the
// TaskContext of every operator instance this process hosts; Run arms
// one goroutine per local task for one round. The first round launches
// them, and between rounds they stay parked until Close. An iterative
// dataflow whose every step runs the same operators on the same nodes
// (Pregelix's sticky supersteps, Section 5.3.4) prepares once and pays
// only a round per step.
//
// A round builds its runtimes afresh from the operator descriptors, so
// no state passes from one round to the next but what the operators
// keep themselves, or leave in their TaskContext's Carry. Rounds run one
// at a time, and Close must not overlap one. A failed round leaves the
// plan ready for another.
type Plan struct {
	spec  *JobSpec
	opts  ExecOptions
	conns []*connState // every connector, in spec order
	tasks []*task
	// once marks a plan run for a single round (RunJobWith): its tasks'
	// goroutines end with the round instead of parking. Parking them
	// would cost the one-shot empty job (2-partition source → 2-partition
	// sink) 9.7 → 11.4 µs and 74 → 78 allocations, the arm channels and
	// the wake at Close (medians of 10 alternations, slower in all 10;
	// 2 vCPUs).
	once   bool
	parked sync.WaitGroup

	// The round in flight: its context and its name.
	ctx    context.Context
	name   string
	cancel context.CancelFunc
	round  sync.WaitGroup
	mu     sync.Mutex
	err    error
}

type connState struct {
	desc  *ConnectorDesc
	label string // "from->to"
	// place is the placement of a non-fused connector (Job is set per
	// round); trans the round's open streams, nil between rounds.
	place ConnPlacement
	trans ConnTransport
	stats *ConnStats // the round's
}

// task is one locally hosted partition of a source operator, or of an
// operator at the receiving end of a non-fused connector (recv); its
// stage is the root of its operator instances.
type task struct {
	stage
	recv *connState
	arm  chan struct{}
}

// stage is one operator instance of a task: its root, or an operator
// fused into it by a one-to-one connector. Only the task's goroutine
// touches it during a round.
type stage struct {
	op   *OperatorDesc
	tc   TaskContext
	outs []outlet
	// writers holds each port's writer for the round being built;
	// unconnected ports keep a discardWriter.
	writers []FrameWriter
}

// outlet is one output port of a stage: a fused consumer, the sender
// end of a connector (snd, re-aimed at the connector's streams every
// round), or neither (the port is discarded).
type outlet struct {
	fused *stage
	conn  *connState
	snd   *partitionSender
}

// Prepare validates and schedules spec, indexes its connectors and
// builds a TaskContext for every operator instance hosted by
// opts.LocalNodes. The caller runs rounds with Run, the first of which
// launches one goroutine per local task, and releases the goroutines
// with Close.
func Prepare(cluster *Cluster, spec *JobSpec, opts ExecOptions) (*Plan, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	assign, err := Schedule(cluster, spec)
	if err != nil {
		return nil, err
	}
	p := &Plan{spec: spec, opts: opts}

	// Index connectors.
	outbound := make(map[string]map[int]*connState) // opID -> port -> conn
	inbound := make(map[string]*connState)
	fused := make(map[string]bool)
	for _, cd := range spec.Conns {
		cs := &connState{desc: cd, label: cd.From + "->" + cd.To}
		p.conns = append(p.conns, cs)
		if outbound[cd.From] == nil {
			outbound[cd.From] = make(map[int]*connState)
		}
		if _, dup := outbound[cd.From][cd.FromPort]; dup {
			return nil, fmt.Errorf("job %s: operator %s port %d has two connectors", spec.Name, cd.From, cd.FromPort)
		}
		outbound[cd.From][cd.FromPort] = cs
		switch cd.Type {
		case OneToOne:
			if fused[cd.To] {
				return nil, fmt.Errorf("job %s: operator %s fused twice", spec.Name, cd.To)
			}
			fused[cd.To] = true
			continue
		case MToNPartitioning, MToNPartitioningMerging:
		default:
			return nil, fmt.Errorf("job %s: unknown connector type %v", spec.Name, cd.Type)
		}
		if _, dup := inbound[cd.To]; dup {
			return nil, fmt.Errorf("job %s: operator %s has two non-fused inbound connectors", spec.Name, cd.To)
		}
		inbound[cd.To] = cs
		from, to := spec.op(cd.From), spec.op(cd.To)
		buf := cd.BufferFrames
		if buf <= 0 {
			buf = 8
		}
		cs.place = ConnPlacement{
			ID:            ConnID{Conn: cs.label},
			Senders:       from.Partitions,
			Receivers:     to.Partitions,
			BufferFrames:  buf,
			Merging:       cd.Type == MToNPartitioningMerging,
			SenderNodes:   nodeIDs(assign[from.ID]),
			ReceiverNodes: nodeIDs(assign[to.ID]),
		}
	}

	// One task per local partition of every receiver, then of every
	// source: a round launches and arms them in this order, so receivers
	// wait when the first frames come. A fused consumer is neither: it
	// runs inside its producer's task.
	for _, receivers := range [2]bool{true, false} {
		for _, op := range spec.Ops {
			recv := inbound[op.ID]
			if receivers != (recv != nil) || !receivers && op.NewSource == nil {
				continue
			}
			for part, node := range assign[op.ID] {
				if !opts.Local(node.ID) {
					continue // hosted by another process
				}
				t := &task{recv: recv}
				if err := p.build(&t.stage, op, part, node, outbound, receivers); err != nil {
					return nil, err
				}
				p.tasks = append(p.tasks, t)
			}
		}
	}
	return p, nil
}

// nodeIDs names the nodes of a schedule entry.
func nodeIDs(nodes []*NodeController) []NodeID {
	ids := make([]NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	return ids
}

// build makes s op's instance for one partition with its outputs
// indexed, recursively through one-to-one chains. A consumer must have a
// runtime.
func (p *Plan) build(s *stage, op *OperatorDesc, part int, node *NodeController, outbound map[string]map[int]*connState, consumer bool) error {
	if consumer && op.NewRuntime == nil {
		return fmt.Errorf("job %s: operator %s used as consumer but has no NewRuntime", p.spec.Name, op.ID)
	}
	opMem := node.OperatorMem
	if p.spec.OperatorMemBytes > 0 {
		opMem = p.spec.OperatorMemBytes
	}
	s.op, s.tc = op, TaskContext{
		Node:          node,
		OperatorID:    op.ID,
		Partition:     part,
		NumPartitions: op.Partitions,
		OperatorMem:   opMem,
		RunDir:        p.spec.RunDir,
		ioCounter:     p.spec.IOCounter,
	}
	ports := outbound[op.ID]
	if len(ports) == 0 {
		return nil
	}
	n := 0
	for port := range ports {
		n = max(n, port+1)
	}
	s.outs = make([]outlet, n)
	s.writers = make([]FrameWriter, n)
	for port := range s.outs {
		cs, ok := ports[port]
		switch {
		case !ok:
			s.writers[port] = discardWriter{}
		case cs.desc.Type == OneToOne:
			// Fuse: the consumer runs in this task.
			child := &stage{}
			if err := p.build(child, p.spec.op(cs.desc.To), part, node, outbound, true); err != nil {
				return err
			}
			s.outs[port].fused = child
		default:
			s.outs[port] = outlet{conn: cs, snd: &partitionSender{ports: make([]SendPort, cs.place.Receivers), part: cs.desc.Partitioner}}
		}
	}
	return nil
}

// park is a task's goroutine, launched armed by the task's first round:
// one execution of the task per arm, until Close; after one execution
// when the plan runs once. A source runs; a receiver drains its
// connector.
func (p *Plan) park(t *task, arm chan struct{}) {
	for {
		var err error
		if n := t.tc.Node; n.Failed() {
			err = &NodeFailure{n.ID}
		} else if t.recv == nil {
			err = p.runSource(&t.stage)
		} else {
			err = p.runReceiver(&t.stage, t.recv)
		}
		if err != nil {
			p.fail(err)
		}
		t.drop()
		p.round.Done()
		if arm == nil {
			break
		}
		if _, ok := <-arm; !ok {
			break
		}
	}
	p.parked.Done()
}

// drop forgets the round's runtimes and writers, so that nothing of a
// finished round stays reachable from the plan until the next one.
func (s *stage) drop() {
	for i, o := range s.outs {
		if o.fused != nil {
			o.fused.drop()
		}
		if o.fused != nil || o.conn != nil {
			s.writers[i] = nil
		}
	}
}

// Run executes one round of the plan under the given name, which names
// the round's connector streams (multi-process participants must agree
// on it) and its temp files, and returns the round's own statistics.
// The first task error cancels the round and is returned.
func (p *Plan) Run(ctx context.Context, name string) (*JobResult, error) {
	res := &JobResult{ConnStats: make(map[string]*ConnStats, len(p.conns))}
	for _, cs := range p.conns {
		cs.stats = &ConnStats{}
		res.ConnStats[cs.label] = cs.stats
	}
	p.ctx, p.cancel = context.WithCancel(ctx)
	defer p.cancel()
	p.err = nil
	for _, cs := range p.conns {
		if cs.desc.Type == OneToOne {
			continue
		}
		cs.place.ID.Job, cs.place.Stats = name, cs.stats
		t, err := p.opts.transport().OpenConn(cs.place)
		if err != nil {
			p.closeStreams()
			return nil, err
		}
		cs.trans = t
	}
	p.name = name
	p.round.Add(len(p.tasks))
	for _, t := range p.tasks {
		if t.arm != nil {
			t.arm <- struct{}{}
			continue
		}
		p.parked.Add(1)
		if !p.once {
			t.arm = make(chan struct{}, 1)
		}
		go p.park(t, t.arm)
	}
	p.round.Wait()
	p.closeStreams()
	return res, p.err
}

// Close releases the plan's goroutines. It is idempotent.
func (p *Plan) Close() {
	for _, t := range p.tasks {
		if t.arm != nil {
			close(t.arm)
		}
	}
	p.tasks = nil
	p.parked.Wait()
}

// closeStreams closes the round's open connectors; the transport returns
// any frame still queued in them to the pool. Only called with no task
// running, so no sender races the drain.
func (p *Plan) closeStreams() {
	for _, cs := range p.conns {
		if cs.trans != nil {
			cs.trans.Close()
			cs.trans = nil
		}
	}
}

func (p *Plan) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		p.err = err
		p.cancel()
	}
}

// runSource builds a source task's runtimes and writers for the round
// and runs it.
func (p *Plan) runSource(s *stage) error {
	s.tc.Ctx, s.tc.JobName = p.ctx, p.name
	src, err := s.op.NewSource(&s.tc)
	if err != nil {
		return err
	}
	outs, err := p.outputs(s)
	if err != nil {
		return err
	}
	src.SetOutputs(outs)
	return src.Run(p.ctx)
}

// runReceiver builds a receiver task's runtimes for the round and drains
// its connector into them.
func (p *Plan) runReceiver(s *stage, cs *connState) error {
	rt, err := p.runtime(s)
	if err != nil {
		return err
	}
	part := s.tc.Partition
	if cs.desc.Type == MToNPartitioningMerging {
		ports := make([]RecvPort, cs.place.Senders)
		for i := range ports {
			ports[i] = cs.trans.RecvMerge(i, part)
		}
		return runMergingReceiver(p.ctx, rt, ports, cs.desc.Comparator)
	}
	return runPlainReceiver(p.ctx, rt, cs.trans.RecvPlain(part), cs.place.Senders)
}

// runtime instantiates a stage's PushRuntime for the round with its
// outputs wired.
func (p *Plan) runtime(s *stage) (PushRuntime, error) {
	s.tc.Ctx, s.tc.JobName = p.ctx, p.name
	rt, err := s.op.NewRuntime(&s.tc)
	if err != nil {
		return nil, err
	}
	outs, err := p.outputs(s)
	if err != nil {
		return nil, err
	}
	rt.SetOutputs(outs)
	return rt, nil
}

// outputs builds the round's writer for every connected port of s.
func (p *Plan) outputs(s *stage) ([]FrameWriter, error) {
	for i, o := range s.outs {
		switch {
		case o.fused != nil:
			rt, err := p.runtime(o.fused)
			if err != nil {
				return nil, err
			}
			s.writers[i] = rt
		case o.conn != nil:
			s.writers[i] = p.sender(o, &s.tc)
		}
	}
	return s.writers, nil
}

// sender aims an outlet's sender endpoint at the round's streams of its
// connector, for one producer task.
func (p *Plan) sender(o outlet, tc *TaskContext) FrameWriter {
	cs, cd := o.conn, o.conn.desc
	o.snd.ctx, o.snd.stats = p.ctx, cs.stats
	for r := range o.snd.ports {
		o.snd.ports[r] = cs.trans.SendPort(tc.Partition, r)
	}
	// Merging connectors use the sender-side materializing pipelined
	// policy to avoid deadlock (Section 5.3.1); the others send directly.
	if cd.Type != MToNPartitioningMerging {
		return o.snd
	}
	return newMaterializingWriter(p.ctx, tc.Node,
		tc.Node.TempPathIn(p.spec.RunDir, tc.JobName+"-"+cd.From+"-p"+strconv.Itoa(tc.Partition)+"-merge"), p.spec.IOCounter, o.snd)
}
