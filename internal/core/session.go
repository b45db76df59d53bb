package core

// WorkerSession carries a worker's runtime — and with it the runtime's
// query store — across control-connection losses. Without a shared
// one, each RunWorker call builds a fresh runtime with an empty store
// and tears it down on return, so a coordinator restart — which drops
// every control connection — would destroy the sealed result versions
// the workers were serving. A rejoin loop that passes the same session
// into every RunWorker call instead keeps the B-trees open: the
// re-registration handshake reports the sealed versions, the restarted
// coordinator rebuilds its catalog from the reports, and queries resume
// without re-running anything.

import (
	"sync"

	"pregelix/internal/hyracks"
	"pregelix/internal/tuple"
)

// WorkerSession is the state of one worker process that must outlive
// individual control connections. Create one with NewWorkerSession,
// set it on WorkerConfig.Session, and Close it when the process exits.
type WorkerSession struct {
	mu    sync.Mutex
	rt    *Runtime
	shape sessionShape
}

// sessionShape is the runtime geometry a reconnect must match to reuse
// the held runtime; a mismatch (the cluster reassembled differently)
// tears the old runtime down and builds a fresh one.
type sessionShape struct {
	baseDir           string
	totalNodes        int
	partitionsPerNode int
	ramBytes          int64
	pageSize          int
	compress          tuple.CompressMode
}

// NewWorkerSession returns an empty session; the first RunWorker call
// populates it.
func NewWorkerSession() *WorkerSession {
	return &WorkerSession{}
}

// sealed returns the sealed-version reports for the registration
// handshake (nil before the first connection).
func (s *WorkerSession) sealed() []sealedReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rt == nil {
		return nil
	}
	return s.rt.queries.sealedReports()
}

// attach returns the session's runtime for a new control connection,
// building or rebuilding it as needed to match the start message's
// cluster geometry.
func (s *WorkerSession) attach(cfg *WorkerConfig, start *startMsg) (*Runtime, error) {
	shape := sessionShape{
		baseDir:           cfg.BaseDir,
		totalNodes:        start.TotalNodes,
		partitionsPerNode: start.PartitionsPerNode,
		ramBytes:          start.RAMBytes,
		pageSize:          start.PageSize,
		compress:          cfg.Compress,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rt != nil && s.shape == shape {
		return s.rt, nil
	}
	if s.rt != nil {
		s.rt.Close()
		s.rt = nil
	}
	rt, err := NewRuntime(Options{
		BaseDir:           cfg.BaseDir,
		Nodes:             start.TotalNodes,
		PartitionsPerNode: start.PartitionsPerNode,
		NodeConfig:        hyracks.NodeConfig{RAMBytes: start.RAMBytes, PageSize: start.PageSize},
		Compress:          cfg.Compress,
	})
	if err != nil {
		return nil, err
	}
	s.rt, s.shape = rt, shape
	return s.rt, nil
}

// Close tears the session down: retained query versions are retired and
// the runtime's scratch state is removed.
func (s *WorkerSession) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rt != nil {
		s.rt.Close()
		s.rt = nil
	}
}
