// Package hyracks implements a shared-nothing, partitioned-parallel
// dataflow engine modeled on Hyracks (Borkar et al., ICDE 2011), the
// runtime platform Pregelix targets.
//
// Jobs are DAGs of operators and connectors. Operators consume input
// partitions and produce output partitions via a push-based protocol
// (Open/NextFrame/Fail/Close); connectors redistribute data between
// operator partitions. A constraint-based scheduler assigns operator
// partitions to node controllers, supporting the absolute location
// constraints Pregelix uses for sticky iterative dataflows (vertex
// partitions never move between supersteps).
//
// Each node controller is backed by its own storage directory and
// metered memory budget. Connectors move frames through a pluggable
// Transport: in one process the transport is bounded Go channels
// (ChanTransport, the default fast path); across OS processes it is the
// real wire protocol of internal/wire — length-prefixed frame images
// multiplexed over one TCP connection per process pair with
// credit-based backpressure. Every behaviour the paper relies on —
// out-of-core operators, connector materialization policies, sticky
// scheduling, node blacklisting, and the binary frame transport between
// node controllers — is real; RunJobWith executes one process's share
// of a job and meets its peers on the wire.
package hyracks

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"pregelix/internal/memory"
	"pregelix/internal/storage"
)

// NodeID names a simulated machine.
type NodeID string

// NodeController is one simulated worker machine: private disk directory,
// metered RAM, and a buffer cache for its share of the Vertex relation.
type NodeController struct {
	ID  NodeID
	Dir string

	// RAM is the machine's physical memory budget. Subsystem budgets
	// (buffer cache, operator buffers) are carved from it.
	RAM *memory.Budget
	// BufferCache serves index pages for this node's partitions; its
	// budget defaults to 1/4 of RAM as in the paper's default setting.
	BufferCache *storage.BufferCache
	// OperatorMem is the per-operator-instance buffer budget (64 MB
	// default in the paper; scaled down in simulation).
	OperatorMem int64

	failed  atomic.Bool
	tmpSeq  atomic.Int64
	ioBytes atomic.Int64
	// madeDirs maps each scratch subdirectory already created to its path,
	// so the per-file TempPathIn hot path skips the MkdirAll syscall and
	// the path join.
	madeDirs sync.Map
}

// NodeConfig configures a simulated machine.
type NodeConfig struct {
	// RAMBytes is the simulated physical memory (0 = unlimited).
	RAMBytes int64
	// BufferCacheBytes for access methods; defaults to RAMBytes/4.
	BufferCacheBytes int64
	// OperatorMemBytes per group-by/sort operator instance; defaults to
	// RAMBytes/16 (or 64 MiB when RAM is unlimited).
	OperatorMemBytes int64
	// PageSize for the node's buffer cache.
	PageSize int
}

// NewNodeController creates a node rooted at dir.
func NewNodeController(id NodeID, dir string, cfg NodeConfig) (*NodeController, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("node %s: %w", id, err)
	}
	ram := memory.NewBudget(fmt.Sprintf("node-%s-ram", id), cfg.RAMBytes)
	bcBytes := cfg.BufferCacheBytes
	if bcBytes == 0 && cfg.RAMBytes > 0 {
		bcBytes = cfg.RAMBytes / 4
	}
	opMem := cfg.OperatorMemBytes
	if opMem == 0 {
		if cfg.RAMBytes > 0 {
			opMem = cfg.RAMBytes / 16
		} else {
			opMem = 64 << 20
		}
	}
	bcBudget := ram.Child(fmt.Sprintf("node-%s-bufcache", id), bcBytes)
	return &NodeController{
		ID:          id,
		Dir:         dir,
		RAM:         ram,
		BufferCache: storage.NewBufferCache(cfg.PageSize, bcBudget),
		OperatorMem: opMem,
	}, nil
}

// Fail marks the node as failed; tasks scheduled on it abort with a
// *NodeFailure error at open time (failure injection for recovery tests).
func (n *NodeController) Fail() { n.failed.Store(true) }

// Heal clears the failure flag.
func (n *NodeController) Heal() { n.failed.Store(false) }

// Failed reports whether the node is down.
func (n *NodeController) Failed() bool { return n.failed.Load() }

// TempPath returns a fresh temporary file path on this node's disk.
func (n *NodeController) TempPath(prefix string) string {
	return n.TempPathIn("", prefix)
}

// TempPathIn returns a fresh temp file path under the node-relative
// subdirectory sub, creating the directory on first use. Per-job
// subdirectories isolate concurrent tenants' scratch files and let the
// job manager reclaim a whole job's local state in one call.
func (n *NodeController) TempPathIn(sub, prefix string) string {
	dir := n.Dir
	if sub != "" {
		if d, seen := n.madeDirs.Load(sub); seen {
			dir = d.(string)
		} else {
			dir = filepath.Join(n.Dir, sub)
			os.MkdirAll(dir, 0o755) // creation errors surface at file-create time
			n.madeDirs.Store(sub, dir)
		}
	}
	return dir + string(filepath.Separator) + prefix + "-" + strconv.FormatInt(n.tmpSeq.Add(1), 10) + ".tmp"
}

// JobDir returns the node-local directory backing the given run
// subdirectory ("" = the node root).
func (n *NodeController) JobDir(sub string) string {
	if sub == "" {
		return n.Dir
	}
	return filepath.Join(n.Dir, sub)
}

// RemoveJobDir reclaims a job's scratch subdirectory and forgets the
// memoized creation so a later tenant may reuse the path. Removing the
// node root is refused.
func (n *NodeController) RemoveJobDir(sub string) error {
	if sub == "" {
		return nil
	}
	n.madeDirs.Delete(sub)
	return os.RemoveAll(filepath.Join(n.Dir, sub))
}

// AddIOBytes records bytes of temp-file I/O for statistics.
func (n *NodeController) AddIOBytes(b int64) { n.ioBytes.Add(b) }

// IOBytes returns accumulated temp-file I/O.
func (n *NodeController) IOBytes() int64 { return n.ioBytes.Load() }

// NodeFailure is returned by tasks on failed machines; the Pregelix
// failure manager recognizes it as recoverable (unlike application
// errors, which are forwarded to the user).
type NodeFailure struct {
	Node NodeID
}

func (e *NodeFailure) Error() string {
	return fmt.Sprintf("hyracks: node %s failed", e.Node)
}

// Cluster is a set of node controllers plus the master's blacklist.
type Cluster struct {
	mu        sync.Mutex
	nodes     []*NodeController
	blacklist map[NodeID]bool
}

// NewCluster creates n nodes under baseDir, named nc1..ncN.
func NewCluster(baseDir string, n int, cfg NodeConfig) (*Cluster, error) {
	c := &Cluster{blacklist: make(map[NodeID]bool)}
	for i := 0; i < n; i++ {
		id := NodeID(fmt.Sprintf("nc%d", i+1))
		nc, err := NewNodeController(id, filepath.Join(baseDir, string(id)), cfg)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, nc)
	}
	return c, nil
}

// Nodes returns all node controllers (including blacklisted ones).
func (c *Cluster) Nodes() []*NodeController { return c.nodes }

// Node returns the controller with the given id, or nil.
func (c *Cluster) Node(id NodeID) *NodeController {
	for _, n := range c.nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// Blacklist marks a node as unusable for future scheduling. This is the
// master's failure surface (Section 5.7): the Pregelix failure manager
// blacklists a machine when a task on it dies with *NodeFailure, and
// recovery then places its partitions over LiveNodes only. The
// blacklist is deliberately per-Cluster (per-process): in distributed
// mode a worker failure is handled one level up, by reassigning the
// dead process's node IDs to other processes, so the simulated nodes
// themselves stay schedulable everywhere.
func (c *Cluster) Blacklist(id NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.blacklist[id] = true
}

// Unblacklist restores a node to scheduling (a repaired machine
// rejoining).
func (c *Cluster) Unblacklist(id NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.blacklist, id)
}

// Blacklisted reports whether a node is on the master's blacklist
// (distinct from Failed: a failed node crashed, a blacklisted one is
// excluded from scheduling whether or not it has recovered).
func (c *Cluster) Blacklisted(id NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blacklist[id]
}

// LiveNodes returns nodes that are neither blacklisted nor failed.
func (c *Cluster) LiveNodes() []*NodeController {
	c.mu.Lock()
	defer c.mu.Unlock()
	var live []*NodeController
	for _, n := range c.nodes {
		if !c.blacklist[n.ID] && !n.Failed() {
			live = append(live, n)
		}
	}
	return live
}

// AggregatedRAM returns the sum of all live nodes' RAM capacities.
func (c *Cluster) AggregatedRAM() int64 {
	var total int64
	for _, n := range c.LiveNodes() {
		total += n.RAM.Capacity()
	}
	return total
}
