package hyracks

import "fmt"

// Schedule assigns each operator partition to a node controller. It is a
// small constraint solver in the spirit of Hyracks' user-configurable
// task scheduling (Section 4): operators with absolute location
// constraints (the sticky vertex-partition operators of Section 5.3.4)
// are pinned to those nodes; unconstrained operators are spread
// round-robin over live (non-blacklisted, non-failed) nodes.
func Schedule(c *Cluster, spec *JobSpec) (map[string][]*NodeController, error) {
	live := c.LiveNodes()
	if len(live) == 0 {
		return nil, fmt.Errorf("scheduler: no live nodes for job %s", spec.Name)
	}
	out := make(map[string][]*NodeController, len(spec.Ops))
	rr := 0
	for _, op := range spec.Ops {
		nodes := make([]*NodeController, op.Partitions)
		if op.Locations != nil {
			for i, id := range op.Locations {
				n := c.Node(id)
				if n == nil {
					return nil, fmt.Errorf("scheduler: operator %s pinned to unknown node %s", op.ID, id)
				}
				nodes[i] = n
			}
		} else {
			for i := range nodes {
				nodes[i] = live[rr%len(live)]
				rr++
			}
		}
		out[op.ID] = nodes
	}
	return out, nil
}
