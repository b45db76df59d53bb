package algorithms

import (
	"fmt"
	"strconv"

	"pregelix/pregel"
)

// KCoreKKey configures the core order k (default 3).
const KCoreKKey = "kcore.k"

// kCore computes k-core membership by distributed peeling on an
// undirected graph (edges present in both directions). Each vertex's
// value is the VIDList of neighbors it knows to have been peeled; a
// vertex records ITS OWN id in the list as the tombstone marking itself
// peeled. A vertex whose live degree — edges to neighbors not yet known
// peeled — drops below k peels itself and announces its id to all
// neighbors, cascading until the remaining subgraph is the k-core.
//
// Peeling is monotone under edge removal (deleting edges can only
// shrink the core), so a sealed fixed point can be refreshed
// incrementally: after edge removals, re-running only the mutated
// endpoints re-peels exactly the vertices the removals evict, and the
// surviving membership is identical to a from-scratch run. Edge
// additions can only ever grow the core, which peeling cannot undo, so
// additions need a from-scratch run.
type kCore struct{}

func (kCore) Compute(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
	k := int64(3)
	if s := ctx.Config(KCoreKKey); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("algorithms: bad %s: %w", KCoreKKey, err)
		}
		k = n
	}
	list := v.Value.(*pregel.VIDList)
	peeled := make(map[uint64]bool, len(*list))
	for _, id := range *list {
		peeled[id] = true
	}
	if peeled[uint64(v.ID)] {
		// Already peeled; absorb late announcements and stay down.
		v.VoteToHalt()
		return nil
	}
	for _, m := range msgs {
		for _, id := range *m.(*pregel.VIDList) {
			if !peeled[id] {
				peeled[id] = true
				*list = append(*list, id)
			}
		}
	}
	live := int64(0)
	for _, e := range v.Edges {
		if !peeled[uint64(e.Dest)] && e.Dest != v.ID {
			live++
		}
	}
	if live < k {
		*list = append(*list, uint64(v.ID))
		out := pregel.VIDList{uint64(v.ID)}
		for _, e := range v.Edges {
			ctx.SendMessage(e.Dest, &out)
		}
	}
	v.VoteToHalt()
	return nil
}

// VIDListConcatCombiner concatenates VIDList announcements addressed to
// one vertex; receivers deduplicate, so ordering does not matter.
func VIDListConcatCombiner() pregel.Combiner {
	return pregel.CombinerFunc(func(a, b pregel.Value) pregel.Value {
		la := a.(*pregel.VIDList)
		*la = append(*la, *b.(*pregel.VIDList)...)
		return a
	})
}

// NewKCoreJob builds a k-core peeling job. Peeling is message-sparse
// after the first wave, the left-outer-join territory of Section 5.3.2.
// Its concatenating combiner folds no words, so under its HashSort hint
// the message group-bys are the sort group-by.
func NewKCoreJob(name, input, output string, k int) *pregel.Job {
	return &pregel.Job{
		Name:    name,
		Program: kCore{},
		Codec: pregel.Codec{
			NewVertexValue: pregel.NewVIDList,
			NewMessage:     pregel.NewVIDList,
		},
		Combiner:   VIDListConcatCombiner(),
		Join:       pregel.AutoJoin,
		GroupBy:    pregel.HashSortGroupBy,
		Connector:  pregel.UnmergeConnector,
		InputPath:  input,
		OutputPath: output,
		Config: map[string]string{
			KCoreKKey: strconv.Itoa(k),
		},
	}
}
