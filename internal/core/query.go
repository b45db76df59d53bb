package core

import (
	"cmp"
	"container/list"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/internal/wire"
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
var ErrNoResult = wire.Sentinel(1, "core: no retained result for job")

// baseJobName strips the tenant-qualification suffix the serve tier
// appends on either engine ("name@jN" → "name"), yielding the key
// under which result versions of re-submissions supersede each other.
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
	version string // tenant-qualified execution name
	// partTable is the sealed run's partition table: its routing.
	partTable
	codec *pregel.Codec
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

// lookupVertex evaluates one point read against a partition index,
// decoding with dec: the answer copies out all it keeps.
func lookupVertex(idx storage.Index, dec *pregel.VertexDecoder, vid uint64) (VertexQueryResult, error) {
	data, err := idx.Search(tuple.EncodeUint64(vid))
	if err == storage.ErrNotFound {
		return VertexQueryResult{Vid: vid}, nil
	}
	if err != nil {
		return VertexQueryResult{}, err
	}
	v, err := dec.Decode(pregel.VertexID(vid), data)
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

// point evaluates a batch of point reads against the partitions sealed
// here. A vid routed to a partition this result does not hold is a
// routing error (the coordinator fans batches by owner).
func (r *retainedResult) point(vids []uint64) ([]VertexQueryResult, error) {
	out := make([]VertexQueryResult, len(vids))
	dec := r.codec.NewVertexDecoder()
	for i, vid := range vids {
		p := r.routeVid(vid)
		idx := r.parts[p]
		if idx == nil {
			return nil, fmt.Errorf("core: partition %d of %s is not retained here", p, r.version)
		}
		res, err := lookupVertex(idx, dec, vid)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// topKRank is where a vertex places in a top-k answer, computed once per
// candidate. A value whose text parses as a finite number ranks above
// every other, by that score descending; the rest (non-numeric text,
// NaN, ±Inf) follow by text descending, with score 0. Ties go to the
// lower vid.
type topKRank struct {
	vid     uint64
	numeric bool
	score   float64 // 0 unless numeric
	text    string  // "" if numeric
	part    int     // the partition the scan found it in (worker side)
}

// before reports whether a ranks ahead of b.
func (a topKRank) before(b topKRank) bool {
	if a.numeric != b.numeric {
		return a.numeric
	}
	return cmp.Or(cmp.Compare(b.score, a.score), strings.Compare(b.text, a.text), cmp.Compare(a.vid, b.vid)) < 0
}

// textRank ranks a value by its rendered text (pregel.ValueString).
func textRank(vid uint64, text string) topKRank {
	f, err := strconv.ParseFloat(text, 64)
	if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
		return topKRank{vid: vid, text: text}
	}
	return topKRank{vid: vid, numeric: true, score: f}
}

// valueRank is textRank of v's text, skipping the text where reading the
// value gives the same float64: a Double's shortest text and an Int64's
// decimal text both parse back to exactly float64(x).
func valueRank(vid uint64, v pregel.Value) topKRank {
	switch x := v.(type) {
	case *pregel.Double:
		if f := float64(*x); !math.IsInf(f, 0) && !math.IsNaN(f) {
			return topKRank{vid: vid, numeric: true, score: f}
		}
	case *pregel.Int64:
		return topKRank{vid: vid, numeric: true, score: float64(*x)}
	}
	return textRank(vid, pregel.ValueString(v))
}

// bestK orders ranks best-first and keeps the first k.
func bestK(ranks []topKRank, k int) []topKRank {
	sort.Slice(ranks, func(i, j int) bool { return ranks[i].before(ranks[j]) })
	return ranks[:min(k, len(ranks))]
}

// topK scans each partition sealed here once and returns its k best
// vertices by topKRank. Each vertex is scored from its decoded value; one
// that does not beat the k-th best kept so far is dropped, and only the
// k winners are read back and rendered.
func (r *retainedResult) topK(k int) ([]TopKEntry, error) {
	if k <= 0 {
		return []TopKEntry{}, nil
	}
	dec := r.codec.NewVertexDecoder()
	// best is sorted when it first holds k and cut back to the k best
	// whenever it holds 2k, so best[k-1] is a bar k kept ranks all meet.
	var best []topKRank
	for p, idx := range r.parts {
		c, err := idx.ScanFrom(nil)
		if err != nil {
			return nil, err
		}
		for {
			key, val, ok := c.NextView() // decoded and ranked before the next
			if !ok {
				break
			}
			vid := tuple.DecodeUint64(key)
			v, err := dec.Decode(pregel.VertexID(vid), val)
			if err != nil {
				c.Close()
				return nil, err
			}
			rk := valueRank(vid, v.Value)
			if len(best) >= k && !rk.before(best[k-1]) {
				continue
			}
			rk.part = p
			if best = append(best, rk); len(best) == k || len(best) == 2*k {
				best = bestK(best, k)
			}
		}
		err = c.Err()
		c.Close()
		if err != nil {
			return nil, err
		}
	}
	best = bestK(best, k)
	out := make([]TopKEntry, len(best))
	for i, rk := range best {
		res, err := lookupVertex(r.parts[rk.part], dec, rk.vid)
		if err != nil {
			return nil, err
		}
		if !res.Found {
			return nil, fmt.Errorf("core: top-k winner %d is gone from partition %d of %s", rk.vid, rk.part, r.version)
		}
		out[i] = TopKEntry{Vid: rk.vid, Value: res.Value, Score: rk.score, Line: res.Line}
	}
	return out, nil
}

// mergeTopK merges per-worker top-k lists into one global top-k, ranking
// each row by its value text as the workers ranked it.
func mergeTopK(lists [][]TopKEntry, k int) []TopKEntry {
	rows := make(map[uint64]TopKEntry) // a vid is one worker's
	var ranks []topKRank
	for _, l := range lists {
		for _, e := range l {
			rows[e.Vid] = e
			ranks = append(ranks, textRank(e.Vid, e.Value))
		}
	}
	ranks = bestK(ranks, k)
	out := make([]TopKEntry, len(ranks))
	for i, rk := range ranks {
		out[i] = rows[rk.vid]
	}
	return out
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
		rep := sealedReport{Version: r.version, partTable: r.partTable}
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
// keyed by version and vid. Versions never mutate after sealing, so
// entries need no invalidation — a superseded version's entries simply
// age out.
type vertexCache struct {
	mu    sync.Mutex
	lru   *list.List // front = most recent
	items map[vcKey]*list.Element

	hits, misses int64
}

// vertexCacheSize is the number of answers the cache holds.
const vertexCacheSize = 4096

type vcKey struct {
	version string
	vid     uint64
}

type vcEntry struct {
	key vcKey
	res VertexQueryResult
}

func newVertexCache() *vertexCache {
	return &vertexCache{lru: list.New(), items: make(map[vcKey]*list.Element)}
}

func (c *vertexCache) get(key vcKey) (VertexQueryResult, bool) {
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

func (c *vertexCache) put(key vcKey, res VertexQueryResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		e.Value.(*vcEntry).res = res
		c.lru.MoveToFront(e)
		return
	}
	c.items[key] = c.lru.PushFront(&vcEntry{key: key, res: res})
	for c.lru.Len() > vertexCacheSize {
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
