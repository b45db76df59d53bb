package core

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel"
)

// The always-on query tier: a finished job's partition B-trees stay
// open — sealed read-only into a retainedResult — so point lookups,
// top-k and k-hop reads are served straight from the indexes instead of
// re-reading a dump. Results are versioned per run: re-submitting a job
// under the same base name seals a new version and retires the old one,
// but a retired version is destroyed (indexes dropped, scratch dirs
// reclaimed) only when its reader count drains, so a query that started
// against the old version always finishes against it.
//
// Version/retirement state machine of one retainedResult:
//
//	sealed ──(new version sealed / store closed)──▶ retired
//	retired ──(readers == 0)──▶ destroyed
//
// acquire succeeds only in the sealed state; release on the last reader
// of a retired version destroys it.

// ErrNoResult reports that no retained (or still-current) result exists
// for the requested job version.
var ErrNoResult = errors.New("core: no retained result for job")

// baseJobName strips the tenant-qualification suffix the JobManager and
// cluster server append ("name@jN" → "name"), yielding the key under
// which result versions of re-submissions supersede each other.
func baseJobName(name string) string {
	if i := strings.LastIndex(name, "@j"); i >= 0 {
		return name[:i]
	}
	return name
}

// VertexQueryResult is one point lookup's answer.
type VertexQueryResult struct {
	Vid    uint64 `json:"vid"`
	Found  bool   `json:"found"`
	Halted bool   `json:"halted,omitempty"`
	// Value is the vertex value rendered exactly as the dump renders it.
	Value string   `json:"value,omitempty"`
	Edges []uint64 `json:"edges,omitempty"`
	// Line is the full dump-format row (pregel.FormatVertexLine), so a
	// query answer is byte-identical to the dumped reference.
	Line string `json:"line,omitempty"`
}

// TopKEntry is one row of a top-k-by-value answer.
type TopKEntry struct {
	Vid   uint64  `json:"vid"`
	Value string  `json:"value"`
	Score float64 `json:"score"`
	Line  string  `json:"line"`
}

// KHopResult is a k-hop neighborhood expansion from one source vertex.
type KHopResult struct {
	Source uint64 `json:"source"`
	Found  bool   `json:"found"`
	Hops   int    `json:"hops"`
	// Layers[i] lists the vertex IDs first reached in i+1 hops,
	// ascending. Edge destinations count even when the destination
	// vertex does not exist in the graph (dangling edges contribute a
	// frontier entry but no further expansion).
	Layers [][]uint64 `json:"layers"`
	// Total is the number of distinct vertices within Hops hops of the
	// source (the source itself excluded).
	Total int `json:"total"`
}

// retainedResult is one sealed version of a job's partition indexes.
type retainedResult struct {
	version  string // tenant-qualified execution name
	numParts int    // the run's full partition count (routing modulus)
	// baseParts/splits reproduce the sealed run's two-level routing
	// when it committed hot-partition splits (split.go); baseParts
	// falls back to numParts for unsplit runs.
	baseParts int
	splits    []splitRec
	codec     *pregel.Codec
	// parts holds the partitions sealed here — all of them in a
	// single-process runtime, only the owned subset on a cluster worker.
	parts map[int]storage.Index
	// cleanup reclaims the job's scratch directories at destruction.
	cleanup func()

	mu      sync.Mutex
	readers int
	retired bool
}

// acquire registers a reader; it fails once the version is retired.
func (r *retainedResult) acquire() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.retired {
		return false
	}
	r.readers++
	return true
}

// release drops a reader, destroying a retired version when its last
// reader drains.
func (r *retainedResult) release() {
	r.mu.Lock()
	r.readers--
	destroy := r.retired && r.readers == 0
	r.mu.Unlock()
	if destroy {
		r.destroy()
	}
}

// retire marks the version dead for new readers; destruction waits for
// in-flight readers to drain.
func (r *retainedResult) retire() {
	r.mu.Lock()
	if r.retired {
		r.mu.Unlock()
		return
	}
	r.retired = true
	destroy := r.readers == 0
	r.mu.Unlock()
	if destroy {
		r.destroy()
	}
}

func (r *retainedResult) destroy() {
	for _, idx := range r.parts {
		idx.Drop()
	}
	if r.cleanup != nil {
		r.cleanup()
	}
}

// lookupVertex evaluates one point read against a partition index.
func lookupVertex(idx storage.Index, codec *pregel.Codec, vid uint64) (VertexQueryResult, error) {
	data, err := idx.Search(tuple.EncodeUint64(vid))
	if err == storage.ErrNotFound {
		return VertexQueryResult{Vid: vid}, nil
	}
	if err != nil {
		return VertexQueryResult{}, err
	}
	v, err := codec.DecodeVertex(pregel.VertexID(vid), data)
	if err != nil {
		return VertexQueryResult{}, err
	}
	res := VertexQueryResult{
		Vid:    vid,
		Found:  true,
		Halted: v.Halted,
		Value:  pregel.ValueString(v.Value),
		Line:   pregel.FormatVertexLine(v),
	}
	for _, e := range v.Edges {
		res.Edges = append(res.Edges, uint64(e.Dest))
	}
	return res, nil
}

// routeVid routes a vid through the sealed run's routing function —
// split-aware when the run committed splits, the plain hash otherwise.
func (r *retainedResult) routeVid(vid uint64) int {
	base := r.baseParts
	if base == 0 {
		base = r.numParts
	}
	return routeVertex(vid, base, r.splits)
}

// point evaluates a batch of point reads against the partitions sealed
// here. A vid routed to a partition this result does not hold is a
// routing error (the coordinator fans batches by owner).
func (r *retainedResult) point(vids []uint64) ([]VertexQueryResult, error) {
	out := make([]VertexQueryResult, len(vids))
	for i, vid := range vids {
		p := r.routeVid(vid)
		idx := r.parts[p]
		if idx == nil {
			return nil, fmt.Errorf("core: partition %d of %s is not retained here", p, r.version)
		}
		res, err := lookupVertex(idx, r.codec, vid)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// topK scans every partition sealed here and returns the k entries with
// the highest numeric value (ties broken by ascending vid; non-numeric
// values sort below all numeric ones, ordered by value string).
func (r *retainedResult) topK(k int) ([]TopKEntry, error) {
	if k <= 0 {
		return []TopKEntry{}, nil
	}
	var entries []TopKEntry
	for _, idx := range r.parts {
		c, err := idx.ScanFrom(nil)
		if err != nil {
			return nil, err
		}
		for {
			key, val, ok := c.Next()
			if !ok {
				break
			}
			vid := tuple.DecodeUint64(key)
			v, err := r.codec.DecodeVertex(pregel.VertexID(vid), val)
			if err != nil {
				c.Close()
				return nil, err
			}
			vs := pregel.ValueString(v.Value)
			score, perr := strconv.ParseFloat(vs, 64)
			if perr != nil {
				score = 0
			}
			entries = append(entries, TopKEntry{
				Vid:   vid,
				Value: vs,
				Score: score,
				Line:  pregel.FormatVertexLine(v),
			})
		}
		err = c.Err()
		c.Close()
		if err != nil {
			return nil, err
		}
	}
	sortTopK(entries)
	if len(entries) > k {
		entries = entries[:k]
	}
	return entries, nil
}

// sortTopK orders entries best-first: numeric score descending, ties by
// ascending vid; entries whose value is not numeric sort last.
func sortTopK(entries []TopKEntry) {
	numeric := func(e TopKEntry) bool {
		_, err := strconv.ParseFloat(e.Value, 64)
		return err == nil
	}
	sort.Slice(entries, func(i, j int) bool {
		ni, nj := numeric(entries[i]), numeric(entries[j])
		if ni != nj {
			return ni
		}
		if !ni {
			if entries[i].Value != entries[j].Value {
				return entries[i].Value > entries[j].Value
			}
			return entries[i].Vid < entries[j].Vid
		}
		if entries[i].Score != entries[j].Score {
			return entries[i].Score > entries[j].Score
		}
		return entries[i].Vid < entries[j].Vid
	})
}

// mergeTopK merges per-worker top-k lists into one global top-k.
func mergeTopK(lists [][]TopKEntry, k int) []TopKEntry {
	var all []TopKEntry
	for _, l := range lists {
		all = append(all, l...)
	}
	sortTopK(all)
	if len(all) > k {
		all = all[:k]
	}
	if all == nil {
		all = []TopKEntry{}
	}
	return all
}

// pointFn is a batched point-read evaluator; khopFrom is written
// against it so the single-process store and the coordinator (cached,
// batched, fanned out over workers) share one BFS.
type pointFn func(vids []uint64) ([]VertexQueryResult, error)

// khopFrom expands the k-hop neighborhood of source breadth-first,
// batching each frontier into one lookup call.
func khopFrom(source uint64, hops int, lookup pointFn) (*KHopResult, error) {
	res := &KHopResult{Source: source, Hops: hops, Layers: [][]uint64{}}
	srcRes, err := lookup([]uint64{source})
	if err != nil {
		return nil, err
	}
	if !srcRes[0].Found {
		return res, nil
	}
	res.Found = true
	visited := map[uint64]bool{source: true}
	frontier := []VertexQueryResult{srcRes[0]}
	for h := 0; h < hops; h++ {
		var layer []uint64
		for _, v := range frontier {
			for _, dest := range v.Edges {
				if !visited[dest] {
					visited[dest] = true
					layer = append(layer, dest)
				}
			}
		}
		if len(layer) == 0 {
			break
		}
		sort.Slice(layer, func(i, j int) bool { return layer[i] < layer[j] })
		res.Layers = append(res.Layers, layer)
		res.Total += len(layer)
		if h+1 == hops {
			break
		}
		next, err := lookup(layer)
		if err != nil {
			return nil, err
		}
		frontier = frontier[:0]
		for _, v := range next {
			if v.Found {
				frontier = append(frontier, v)
			}
		}
	}
	return res, nil
}

// QueryStore is the retained-results registry of one runtime or worker:
// the latest sealed version per base job name. Point/TopK/KHop serve
// reads against an exact version, failing once that version has been
// superseded and retired.
type QueryStore struct {
	mu sync.Mutex
	m  map[string]*retainedResult
}

func newQueryStore() *QueryStore {
	return &QueryStore{m: make(map[string]*retainedResult)}
}

// seal installs a new sealed version, retiring its predecessor (which
// keeps serving in-flight readers until they drain).
func (s *QueryStore) seal(r *retainedResult) {
	base := baseJobName(r.version)
	s.mu.Lock()
	old := s.m[base]
	s.m[base] = r
	s.mu.Unlock()
	if old != nil {
		old.retire()
	}
}

// acquire returns the retained result for the exact version with a
// reader registered; the caller must release it.
func (s *QueryStore) acquire(version string) (*retainedResult, error) {
	s.mu.Lock()
	r := s.m[baseJobName(version)]
	s.mu.Unlock()
	if r == nil || r.version != version || !r.acquire() {
		return nil, fmt.Errorf("%w: %s", ErrNoResult, version)
	}
	return r, nil
}

// sealedReports enumerates the store's current sealed versions in
// re-registration form: version, full partition count, and the
// partition indexes held locally. A rejoining worker sends these so a
// restarted coordinator can rebuild its sealed-version catalog.
func (s *QueryStore) sealedReports() []sealedReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []sealedReport
	for _, r := range s.m {
		rep := sealedReport{
			Version: r.version, NumParts: r.numParts,
			BaseParts: r.baseParts, Splits: append([]splitRec(nil), r.splits...),
		}
		for p := range r.parts {
			rep.Parts = append(rep.Parts, p)
		}
		sort.Ints(rep.Parts)
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// Retained reports whether the exact version is the current sealed
// result of its base name.
func (s *QueryStore) Retained(version string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.m[baseJobName(version)]
	return r != nil && r.version == version
}

// Point serves a batch of point lookups from the named result version.
func (s *QueryStore) Point(version string, vids []uint64) ([]VertexQueryResult, error) {
	r, err := s.acquire(version)
	if err != nil {
		return nil, err
	}
	defer r.release()
	return r.point(vids)
}

// TopK serves the k highest-valued vertices of the named result version.
func (s *QueryStore) TopK(version string, k int) ([]TopKEntry, error) {
	r, err := s.acquire(version)
	if err != nil {
		return nil, err
	}
	defer r.release()
	return r.topK(k)
}

// KHop expands the k-hop neighborhood of source in the named result
// version.
func (s *QueryStore) KHop(version string, source uint64, hops int) (*KHopResult, error) {
	r, err := s.acquire(version)
	if err != nil {
		return nil, err
	}
	defer r.release()
	return khopFrom(source, hops, r.point)
}

// closeAll retires every retained version (in-flight readers drain
// first, per version).
func (s *QueryStore) closeAll() {
	s.mu.Lock()
	all := make([]*retainedResult, 0, len(s.m))
	for _, r := range s.m {
		all = append(all, r)
	}
	s.m = make(map[string]*retainedResult)
	s.mu.Unlock()
	for _, r := range all {
		r.retire()
	}
}

// vertexCache is the coordinator's hot-vertex LRU: point-read answers
// keyed by "version/vid". Versions never mutate after sealing, so
// entries need no invalidation — a superseded version's entries simply
// age out.
type vertexCache struct {
	mu    sync.Mutex
	max   int
	lru   *list.List // front = most recent
	items map[string]*list.Element

	hits, misses int64
}

type vcEntry struct {
	key string
	res VertexQueryResult
}

func newVertexCache(max int) *vertexCache {
	if max <= 0 {
		max = 4096
	}
	return &vertexCache{max: max, lru: list.New(), items: make(map[string]*list.Element)}
}

func vcKey(version string, vid uint64) string {
	return version + "/" + strconv.FormatUint(vid, 10)
}

func (c *vertexCache) get(key string) (VertexQueryResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.lru.MoveToFront(e)
		c.hits++
		return e.Value.(*vcEntry).res, true
	}
	c.misses++
	return VertexQueryResult{}, false
}

func (c *vertexCache) put(key string, res VertexQueryResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.Value.(*vcEntry).res = res
		c.lru.MoveToFront(e)
		return
	}
	c.items[key] = c.lru.PushFront(&vcEntry{key: key, res: res})
	for c.lru.Len() > c.max {
		e := c.lru.Back()
		c.lru.Remove(e)
		delete(c.items, e.Value.(*vcEntry).key)
	}
}

// stats returns the hit/miss counters (bench and tests).
func (c *vertexCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
