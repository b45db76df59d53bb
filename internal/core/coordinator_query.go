package core

import (
	"context"
	"fmt"
	"sync"
)

// The coordinator half of the always-on query tier. When a distributed
// run completes, endJobSessions sends job.end with Retain set: every
// worker seals its owned partitions' vertex indexes into a result
// version and reports which partitions it now serves. The coordinator
// records that partition→worker owner map and answers reads by fanning
// query.point / query.topk out to the owning workers — with a
// hot-vertex LRU in front and per-vertex coalescing plus per-worker
// batching behind it, so repeated and concurrent small reads don't
// become per-vertex RPCs.
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

// qflight is one in-flight point read other callers can coalesce onto.
type qflight struct {
	done chan struct{}
	res  VertexQueryResult
	err  error
}

// endJobSessions closes the job's session on every worker. With retain
// set the workers seal their partitions for the query tier and the
// replies are folded into the coordinator's owner map; a worker that
// fails the call (it died with the job already finished) simply
// contributes no partitions.
func (c *Coordinator) endJobSessions(ctx context.Context, name string, retain bool) {
	workers := c.members()
	replies := make([]jobEndReply, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *ccWorker) {
			defer wg.Done()
			errs[i] = w.call(ctx, rpcJobEnd, jobEndMsg{Name: name, Retain: retain}, &replies[i])
		}(i, w)
	}
	wg.Wait()
	if !retain {
		return
	}
	res := &clusterResult{version: name, owners: make(map[int]*ccWorker)}
	for i, w := range workers {
		if errs[i] != nil || replies[i].Version != name {
			continue
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

// QueryVertices serves a batch of point reads. Cache hits are answered
// locally; for the rest, one caller per vertex leads the fetch (others
// coalesce onto its in-flight read) and the led vertices are grouped
// into one query.point RPC per owning worker.
func (c *Coordinator) QueryVertices(ctx context.Context, version string, vids []uint64) ([]VertexQueryResult, error) {
	res, err := c.queryResult(version)
	if err != nil {
		return nil, err
	}
	out := make([]VertexQueryResult, len(vids))
	var mine []uint64                 // vids this caller leads
	mineIdx := make(map[uint64][]int) // vid → result positions
	mineFlights := make(map[uint64]*qflight)
	var joined []*qflight // in-flight reads led by other callers
	var joinedIdx []int
	for i, vid := range vids {
		key := vcKey(version, vid)
		if r, ok := c.qcache.get(key); ok {
			out[i] = r
			continue
		}
		if idxs, dup := mineIdx[vid]; dup {
			mineIdx[vid] = append(idxs, i)
			continue
		}
		c.qmu.Lock()
		if f, ok := c.qflights[key]; ok {
			c.qmu.Unlock()
			joined = append(joined, f)
			joinedIdx = append(joinedIdx, i)
			continue
		}
		f := &qflight{done: make(chan struct{})}
		c.qflights[key] = f
		c.qmu.Unlock()
		mine = append(mine, vid)
		mineIdx[vid] = []int{i}
		mineFlights[vid] = f
	}

	if len(mine) > 0 {
		results, ferr := c.fanPointReads(ctx, res, mine)
		for _, vid := range mine {
			key := vcKey(version, vid)
			f := mineFlights[vid]
			if ferr != nil {
				f.err = ferr
			} else {
				f.res = results[vid]
				c.qcache.put(key, f.res)
			}
			c.qmu.Lock()
			delete(c.qflights, key)
			c.qmu.Unlock()
			close(f.done)
		}
		if ferr != nil {
			return nil, ferr
		}
		for _, vid := range mine {
			for _, i := range mineIdx[vid] {
				out[i] = mineFlights[vid].res
			}
		}
	}
	for k, f := range joined {
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err != nil {
			return nil, f.err
		}
		out[joinedIdx[k]] = f.res
	}
	return out, nil
}

// fanPointReads groups vids by owning worker and issues one batched
// query.point RPC per worker, in parallel.
func (c *Coordinator) fanPointReads(ctx context.Context, res *clusterResult, vids []uint64) (map[uint64]VertexQueryResult, error) {
	byWorker := make(map[*ccWorker][]uint64)
	for _, vid := range vids {
		p := res.routeVid(vid)
		w := res.owners[p]
		if w == nil {
			return nil, fmt.Errorf("core: partition %d of %s has no serving worker", p, res.version)
		}
		byWorker[w] = append(byWorker[w], vid)
	}
	out := make(map[uint64]VertexQueryResult, len(vids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for w, batch := range byWorker {
		wg.Add(1)
		go func(w *ccWorker, batch []uint64) {
			defer wg.Done()
			var reply queryPointReply
			err := w.call(ctx, rpcQueryPoint, queryPointMsg{Version: res.version, Vids: batch}, &reply)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if len(reply.Results) != len(batch) {
				if firstErr == nil {
					firstErr = fmt.Errorf("core: query.point returned %d results for %d vids", len(reply.Results), len(batch))
				}
				return
			}
			for _, r := range reply.Results {
				out[r.Vid] = r
			}
		}(w, batch)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
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
	lists := make([][]TopKEntry, 0, len(distinct))
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for w := range distinct {
		wg.Add(1)
		go func(w *ccWorker) {
			defer wg.Done()
			var reply queryTopKReply
			err := w.call(ctx, rpcQueryTopK, queryTopKMsg{Version: version, K: k}, &reply)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			lists = append(lists, reply.Entries)
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return mergeTopK(lists, k), nil
}

// QueryKHop expands the k-hop neighborhood of source in the named
// result version, batching each BFS frontier through the cached,
// coalesced, per-worker-batched point-read path.
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
