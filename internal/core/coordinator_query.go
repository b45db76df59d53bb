package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
)

// The coordinator half of the always-on query tier. When a distributed
// run completes, endJobSessions sends job.end with Retain set: every
// worker seals its owned partitions' vertex indexes into a result
// version and reports which partitions it now serves. The coordinator
// records that partition→worker owner map and answers reads by fanning
// query.point / query.topk out to the owning workers — with a
// hot-vertex LRU in front and per-worker batching behind it, so
// repeated small reads don't become per-vertex RPCs.
//
// Ownership is fixed at seal time: retained results never migrate, so
// a rebalance or failure repair during a LATER job cannot move a sealed
// version's partitions — queries keep hitting the workers that sealed
// them. (A sealed worker that dies takes its partitions' answers with
// it; queries routed there fail until a re-submission reseals.)

// clusterResult is the coordinator's record of one sealed version.
type clusterResult struct {
	version string
	// partTable is the sealed run's partition table: its routing.
	partTable
	owners map[int]*ccWorker
}

// endJobSessions closes the job's session on every worker. With retain
// set the workers seal their partitions for the query tier and the
// replies are folded into the coordinator's owner map; a worker that
// fails the call (it died with the job already finished) simply
// contributes no partitions.
func (c *Coordinator) endJobSessions(ctx context.Context, name string, retain bool) {
	workers := c.members()
	replies, _ := phaseCallTo[jobEndReply](ctx, c, workers, "", rpcJobEnd, func(*ccWorker) any {
		return jobEndMsg{Name: name, Retain: retain}
	})
	if !retain {
		return
	}
	res := &clusterResult{version: name, owners: make(map[int]*ccWorker)}
	for i, w := range workers {
		if replies[i].Version != name {
			continue // the call failed, or the worker sealed nothing
		}
		res.merge(replies[i].partTable)
		for _, p := range replies[i].Parts {
			res.owners[p] = w
		}
	}
	if res.NumParts == 0 || len(res.owners) == 0 {
		return // nothing sealed (the job never loaded partitions)
	}
	c.qmu.Lock()
	c.queries[baseJobName(name)] = res
	c.qmu.Unlock()
	c.saveCatalog()
	c.cfg.logf("coordinator: %s sealed for queries — %d/%d partitions across %d workers",
		name, len(res.owners), res.NumParts, len(workers))
}

// LatestVersion reports the exact sealed version currently serving the
// given job name's base. After a coordinator restart this is the
// re-adopted, catalog-arbitrated truth — a restarted controller resumes
// a job's delta-version chain from it instead of guessing from the
// original job name.
func (c *Coordinator) LatestVersion(name string) (string, bool) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	res := c.queries[baseJobName(name)]
	if res == nil {
		return "", false
	}
	return res.version, true
}

// queryResult resolves an exact result version, failing when the
// version was never sealed or has been superseded by a re-submission.
func (c *Coordinator) queryResult(version string) (*clusterResult, error) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	res := c.queries[baseJobName(version)]
	if res == nil || res.version != version {
		return nil, fmt.Errorf("%w: %s", ErrNoResult, version)
	}
	return res, nil
}

// QueryVertex serves one point read from the named result version,
// through the hot-vertex cache.
func (c *Coordinator) QueryVertex(ctx context.Context, version string, vid uint64) (VertexQueryResult, error) {
	out, err := c.QueryVertices(ctx, version, []uint64{vid})
	if err != nil {
		return VertexQueryResult{}, err
	}
	return out[0], nil
}

// QueryVertices serves a batch of point reads, one answer per
// position. Cache hits are answered locally; the rest are grouped into
// one query.point RPC per owning worker.
func (c *Coordinator) QueryVertices(ctx context.Context, version string, vids []uint64) ([]VertexQueryResult, error) {
	res, err := c.queryResult(version)
	if err != nil {
		return nil, err
	}
	out := make([]VertexQueryResult, len(vids))
	var miss []int // positions the cache did not answer
	for i, vid := range vids {
		if r, ok := c.qcache.get(vcKey{version, vid}); ok {
			out[i] = r
		} else {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		return out, nil
	}
	byWorker := make(map[*ccWorker][]uint64)
	for _, i := range miss {
		p := res.routeVid(vids[i])
		w := res.owners[p]
		if w == nil {
			return nil, fmt.Errorf("core: partition %d of %s has no serving worker", p, res.version)
		}
		byWorker[w] = append(byWorker[w], vids[i])
	}
	workers := slices.Collect(maps.Keys(byWorker))
	replies, err := phaseCallTo[queryPointReply](ctx, c, workers, "", rpcQueryPoint, func(w *ccWorker) any {
		return queryPointMsg{Version: version, Vids: byWorker[w]}
	})
	if err != nil {
		return nil, err
	}
	fetched := make(map[uint64]VertexQueryResult, len(miss))
	for i, w := range workers {
		if len(replies[i].Results) != len(byWorker[w]) {
			return nil, fmt.Errorf("core: query.point returned %d results for %d vids", len(replies[i].Results), len(byWorker[w]))
		}
		for _, r := range replies[i].Results {
			fetched[r.Vid] = r
			c.qcache.put(vcKey{version, r.Vid}, r)
		}
	}
	for _, i := range miss {
		out[i] = fetched[vids[i]]
	}
	return out, nil
}

// QueryTopK returns the k highest-valued vertices of the named result
// version, merging each owning worker's local top-k.
func (c *Coordinator) QueryTopK(ctx context.Context, version string, k int) ([]TopKEntry, error) {
	res, err := c.queryResult(version)
	if err != nil {
		return nil, err
	}
	distinct := make(map[*ccWorker]bool)
	for _, w := range res.owners {
		distinct[w] = true
	}
	replies, err := phaseCallTo[queryTopKReply](ctx, c, slices.Collect(maps.Keys(distinct)), "", rpcQueryTopK, func(*ccWorker) any {
		return queryTopKMsg{Version: version, K: k}
	})
	if err != nil {
		return nil, err
	}
	lists := make([][]TopKEntry, len(replies))
	for i, r := range replies {
		lists[i] = r.Entries
	}
	return mergeTopK(lists, k), nil
}

// QueryKHop expands the k-hop neighborhood of source in the named
// result version, batching each BFS frontier through the cached,
// per-worker-batched point-read path.
func (c *Coordinator) QueryKHop(ctx context.Context, version string, source uint64, hops int) (*KHopResult, error) {
	if _, err := c.queryResult(version); err != nil {
		return nil, err
	}
	return khopFrom(source, hops, func(vids []uint64) ([]VertexQueryResult, error) {
		return c.QueryVertices(ctx, version, vids)
	})
}

// QueryCacheStats reports the hot-vertex cache's hit/miss counters.
func (c *Coordinator) QueryCacheStats() (hits, misses int64) {
	return c.qcache.stats()
}
