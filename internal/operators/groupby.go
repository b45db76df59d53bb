// Package operators provides the data-parallel relational operators
// Pregelix composes into physical plans: an external sort, the three
// group-by implementations of Section 4 (sort-based, HashSort, and
// preclustered), index-based outer joins, and helpers for two-stage
// global aggregation.
//
// All operators are out-of-core capable: they meter their buffers against
// the task's operator-memory budget and spill sorted runs to node-local
// temporary files when it is exhausted, then merge the runs on close.
// Buffered input is held as packed frames (one pooled byte buffer per
// frame) and sorted through 16-byte entries holding each tuple's
// normalized key and position, so the hot path moves no tuple bytes while
// sorting and performs no per-tuple or per-group heap allocation.
package operators

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"unsafe"

	"pregelix/internal/hyracks"
	"pregelix/internal/memory"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
)

// Combiner folds tuples that share a group key (field 0) into one
// accumulated tuple. Implementations must be insensitive to input order
// within a group (the paper's combine UDF contract).
//
// Aliasing contract: First may retain (alias) its argument, the header
// and the fields both, and may return it: callers hand it a tuple that
// stays untouched for as long as they use the accumulator, which is
// until they have emitted the group (or, in the hash group-by, written
// it to a run), and no longer. Add must NOT retain t or its field slices
// past the call; it may only fold t's data into the accumulator, because
// t is typically a borrowed view into a transport frame that will be
// recycled. Neither may write into the bytes of t's fields.
type Combiner interface {
	// First starts an accumulator from the first tuple of a group. The
	// returned tuple may alias t, or be t.
	First(t tuple.Tuple) tuple.Tuple
	// Add folds t into acc, returning the new accumulator.
	Add(acc, t tuple.Tuple) tuple.Tuple
}

// GroupByKind selects a group-by implementation.
type GroupByKind int

const (
	// SortGroupBy pushes aggregation into both the in-memory sort phase
	// and the run-merge phase of an external sort.
	SortGroupBy GroupByKind = iota
	// HashSortGroupBy aggregates eagerly in a hash table, sorting only
	// on spill/emit; it wins when the number of distinct keys is small.
	HashSortGroupBy
	// PreclusteredGroupBy assumes input already clustered by key and
	// aggregates in a single streaming pass with O(1) state.
	PreclusteredGroupBy
)

func (k GroupByKind) String() string {
	switch k {
	case SortGroupBy:
		return "sort"
	case HashSortGroupBy:
		return "hashsort"
	case PreclusteredGroupBy:
		return "preclustered"
	default:
		return fmt.Sprintf("groupby(%d)", int(k))
	}
}

// NewGroupByRuntime builds a group-by PushRuntime of the given kind.
// combiner may be nil, in which case the operator degenerates to an
// external sort (SortGroupBy/HashSortGroupBy) or a no-op pass-through
// (PreclusteredGroupBy). Output is emitted on port 0 in ascending key
// order for the sorting kinds, and in input order for preclustered.
func NewGroupByRuntime(tc *hyracks.TaskContext, kind GroupByKind, combiner Combiner) hyracks.PushRuntime {
	switch kind {
	case PreclusteredGroupBy:
		return &preclusteredGroupBy{combiner: combiner}
	case HashSortGroupBy:
		return &spillingGroupBy{tc: tc, combiner: combiner, hash: true}
	default:
		return &spillingGroupBy{tc: tc, combiner: combiner}
	}
}

// NewExternalSortRuntime builds an external sort on field 0.
func NewExternalSortRuntime(tc *hyracks.TaskContext) hyracks.PushRuntime {
	return &spillingGroupBy{tc: tc}
}

// preclusteredGroupBy streams clustered input, folding adjacent tuples
// with equal keys.
type preclusteredGroupBy struct {
	hyracks.BaseRuntime
	combiner Combiner
	acc      tuple.Tuple
	scratch  tuple.Tuple
	failed   bool
}

func (g *preclusteredGroupBy) Open() error { return g.OpenOutputs() }

func (g *preclusteredGroupBy) NextFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		r := f.Tuple(i)
		if g.combiner == nil {
			if err := g.EmitRef(0, r); err != nil {
				return err
			}
			continue
		}
		if g.acc == nil {
			// The accumulator outlives this frame: own its bytes.
			g.acc = g.combiner.First(r.Materialize())
			continue
		}
		if bytes.Equal(g.acc[0], r.Field(0)) {
			g.scratch = r.AppendFieldsTo(g.scratch[:0])
			g.acc = g.combiner.Add(g.acc, g.scratch)
			continue
		}
		if err := g.Emit(0, g.acc); err != nil {
			return err
		}
		g.acc = g.combiner.First(r.Materialize())
	}
	return nil
}

func (g *preclusteredGroupBy) Fail(err error) {
	g.failed = true
	g.FailOutputs(err)
}

func (g *preclusteredGroupBy) Close() error {
	if g.failed {
		return nil
	}
	if g.acc != nil {
		if err := g.Emit(0, g.acc); err != nil {
			g.FailOutputs(err)
			return err
		}
		g.acc = nil
	}
	return g.CloseOutputs()
}

// spillingGroupBy implements both the sort-based and HashSort group-bys
// (and, with a nil combiner, a plain external sort). It accumulates
// input in packed frames metered whole-buffer-at-a-time against the
// task's operator-memory budget, spilling sorted (combined) runs to
// disk, and merges runs with final combining on close.
type spillingGroupBy struct {
	hyracks.BaseRuntime
	tc       *hyracks.TaskContext
	combiner Combiner
	hash     bool

	budget *memory.Budget

	// Sort-mode buffer: owned packed frames; the sorter's entries say
	// where each record is.
	frames []*tuple.Frame
	app    tuple.FrameAppender

	// Hash-mode table: key -> boxed accumulator. accs lists the
	// accumulators while a drain has them sorted.
	table map[string]tuple.Tuple
	accs  []tuple.Tuple

	// sorter holds one entry per buffered tuple. Its slice is kept from
	// spill to spill and is on the budget at capacity: entryBytes is
	// what the budget holds for it.
	sorter     keySorter
	entryBytes int64

	// Fold headers: First's argument and Add's argument.
	head, scratch tuple.Tuple

	runs   []*storage.RunFile
	failed bool
}

// minSortEntries is the first capacity of the entry slice: small, because
// most group-bys of a sparse superstep see a tuple or two.
const minSortEntries = 64

func (g *spillingGroupBy) Open() error {
	cap := g.tc.OperatorMem
	g.budget = g.tc.Node.RAM.Child(
		fmt.Sprintf("groupby-%s-p%d", g.tc.OperatorID, g.tc.Partition), cap)
	if g.hash && g.combiner != nil {
		g.table = make(map[string]tuple.Tuple)
	}
	return g.OpenOutputs()
}

func (g *spillingGroupBy) NextFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		if err := g.add(f.Tuple(i)); err != nil {
			return err
		}
	}
	return nil
}

func (g *spillingGroupBy) add(r tuple.TupleRef) error {
	if g.table != nil {
		return g.addHash(r)
	}
	// Sort mode: an entry slot first (making room may spill, which also
	// empties the frames), then the packed record into the operator's
	// own frames.
	if n := len(g.sorter.entries); n == cap(g.sorter.entries) {
		// The first slice is taken even from a budget too small for it,
		// or nothing could be buffered at all.
		if !g.growEntries(max(2*n, minSortEntries), n == 0) {
			if err := g.spill(); err != nil {
				return err
			}
		}
	}
	if g.app.Frame() == nil || !g.app.AppendRef(r) {
		if err := g.startFrame(r); err != nil {
			return err
		}
	}
	g.sorter.add(r.Field(0), uint32(len(g.frames)-1), uint32(g.app.Frame().Len()-1))
	return nil
}

// growEntries makes room for n entries if the budget takes the growth,
// and also if it does not when must is set.
func (g *spillingGroupBy) growEntries(n int, must bool) bool {
	need := int64(n-cap(g.sorter.entries)) * sortEntryBytes
	if g.budget.TryAllocate(need) {
		g.entryBytes += need
	} else if !must {
		return false
	}
	g.sorter.grow(n)
	return true
}

// startFrame meters and takes a new frame (the current one is full, or
// there is none yet) and makes r its first record.
func (g *spillingGroupBy) startFrame(r tuple.TupleRef) error {
	if !g.budget.TryAllocate(tuple.DefaultFrameSize) {
		if err := g.spill(); err != nil {
			return err
		}
		// Retry after spilling; a budget smaller than one frame admits
		// the frame unmetered (it spills again as soon as it fills).
		g.budget.TryAllocate(tuple.DefaultFrameSize)
	}
	f := tuple.GetFrame()
	g.frames = append(g.frames, f)
	g.app.Reset(f)
	// Pooled frames may arrive pre-grown (up to 4x) from an earlier
	// oversized tuple; meter only growth this append causes, not the
	// frame's history.
	capBefore := f.Cap()
	if !g.app.AppendRef(r) {
		return fmt.Errorf("groupby: tuple does not fit an empty frame")
	}
	if grown := f.Cap() - capBefore; grown > 0 {
		// Oversized tuple grew the buffer; meter the growth best-effort.
		g.budget.TryAllocate(int64(grown))
	}
	return nil
}

func (g *spillingGroupBy) addHash(r tuple.TupleRef) error {
	k := string(r.Field(0))
	if acc, ok := g.table[k]; ok {
		old := acc.Size()
		g.scratch = r.AppendFieldsTo(g.scratch[:0])
		acc = g.combiner.Add(acc, g.scratch)
		g.table[k] = acc
		// Meter accumulator growth, best effort.
		if delta := int64(acc.Size() - old); delta > 0 {
			g.budget.TryAllocate(delta)
		}
		return nil
	}
	sz := int64(r.Size() + 48) // payload + per-entry bookkeeping estimate
	if !g.budget.TryAllocate(sz) {
		if err := g.spill(); err != nil {
			return err
		}
		// A single tuple larger than the whole budget is admitted
		// unmetered; the next new key spills it.
		g.budget.TryAllocate(sz)
	}
	g.table[k] = g.combiner.First(r.Materialize())
	return nil
}

// sortBuffered puts what is buffered in key order: afterwards the
// sorter's entries list it, equal keys in arrival order. In hash mode it
// moves the table's accumulators to accs first, leaving the table empty.
func (g *spillingGroupBy) sortBuffered() {
	if n := len(g.table); n > 0 {
		if n > cap(g.sorter.entries) {
			// Metered if the budget has room; it rarely has when a drain
			// is a spill, and the spill is what gives the room back.
			g.growEntries(n, true)
		}
		for _, acc := range g.table {
			g.sorter.add(acc[0], 0, uint32(len(g.accs)))
			g.accs = append(g.accs, acc)
		}
		clear(g.table)
	}
	g.sorter.sort(g.entryKey)
}

// ref returns the buffered record a sort-mode entry stands for.
func (g *spillingGroupBy) ref(e sortEntry) tuple.TupleRef {
	return g.frames[e.frame].Tuple(int(e.rec))
}

func (g *spillingGroupBy) entryKey(e sortEntry) []byte {
	if g.table != nil {
		return g.accs[e.rec][0]
	}
	return g.ref(e).Field(0)
}

// drain emits the sorted buffer. Sort mode folds adjacent equal keys
// through the combiner, or with no combiner passes every record to
// emitRef (one memmove); hash mode's accumulators are folded already.
// Neither callback may keep its argument.
func (g *spillingGroupBy) drain(emitRef func(tuple.TupleRef) error, emitTuple func(tuple.Tuple) error) error {
	switch {
	case g.table != nil:
		for _, e := range g.sorter.entries {
			if err := emitTuple(g.accs[e.rec]); err != nil {
				return err
			}
		}
		return nil
	case g.combiner == nil:
		for _, e := range g.sorter.entries {
			if err := emitRef(g.ref(e)); err != nil {
				return err
			}
		}
		return nil
	}
	var acc tuple.Tuple
	var accKey uint64
	for _, e := range g.sorter.entries {
		g.scratch = g.ref(e).AppendFieldsTo(g.scratch[:0])
		if acc != nil && e.key == accKey && bytes.Equal(acc[0], g.scratch[0]) {
			acc = g.combiner.Add(acc, g.scratch)
			continue
		}
		if acc != nil {
			if err := emitTuple(acc); err != nil {
				return err
			}
		}
		// First may keep its argument, header included, while the group
		// lasts: head is rewritten only once the group has been emitted.
		// The fields alias frames that live until releaseMem.
		g.head = append(g.head[:0], g.scratch...)
		acc, accKey = g.combiner.First(g.head), e.key
	}
	if acc != nil {
		return emitTuple(acc)
	}
	return nil
}

// releaseMem drops the buffered tuples: frames go back to the pool,
// accumulators to the collector, and their bytes to the budget. The
// entry slice stays, emptied, and stays on the budget.
func (g *spillingGroupBy) releaseMem() {
	for _, f := range g.frames {
		tuple.PutFrame(f)
	}
	g.frames = nil
	g.app.Reset(nil)
	clear(g.accs)
	g.accs = g.accs[:0]
	g.sorter.reset()
	if g.budget != nil {
		g.budget.Release(g.budget.Used() - g.entryBytes)
	}
}

func (g *spillingGroupBy) spill() error {
	g.sortBuffered()
	if len(g.sorter.entries) == 0 {
		return nil
	}
	rf, err := storage.CreateRunFile(g.tc.TempPath(fmt.Sprintf("run%d", len(g.runs))))
	if err != nil {
		return err
	}
	if err := g.drain(rf.AppendRef, rf.Append); err != nil {
		rf.Delete() // not yet in g.runs; reclaim fd+frame+file now
		return err
	}
	if err := rf.CloseWrite(); err != nil {
		rf.Delete()
		return err
	}
	g.tc.AddIOBytes(rf.PayloadBytes())
	g.runs = append(g.runs, rf)
	g.releaseMem()
	return nil
}

func (g *spillingGroupBy) Fail(err error) {
	g.failed = true
	g.cleanup()
	g.FailOutputs(err)
}

func (g *spillingGroupBy) cleanup() {
	for _, r := range g.runs {
		r.Delete()
	}
	g.runs = nil
	g.table = nil
	g.sorter = keySorter{}
	g.entryBytes = 0
	g.releaseMem()
}

func (g *spillingGroupBy) Close() error {
	if g.failed {
		return nil
	}
	err := g.finish()
	g.cleanup()
	if err != nil {
		g.FailOutputs(err)
		return err
	}
	return g.CloseOutputs()
}

func (g *spillingGroupBy) finish() error {
	g.sortBuffered()
	emit := func(t tuple.Tuple) error { return g.Emit(0, t) }
	if len(g.runs) == 0 {
		// Fully in-memory: emit straight out of the buffer.
		return g.drain(func(r tuple.TupleRef) error { return g.EmitRef(0, r) }, emit)
	}
	// Merge the spilled runs, oldest first, then the in-memory remainder:
	// MergeSources keeps equal keys in source order, which is arrival order.
	srcs := make([]TupleSource, 0, len(g.runs)+1)
	for _, r := range g.runs {
		rr, err := storage.OpenRunReader(r.Path())
		if err != nil {
			return err
		}
		defer rr.Close()
		srcs = append(srcs, NewRunSource(rr))
	}
	if len(g.sorter.entries) > 0 {
		srcs = append(srcs, &bufferedSource{g: g})
	}
	return MergeSources(srcs, g.combiner, emit)
}

// bufferedSource replays the operator's sorted buffer, unfolded, for the
// final merge. In sort mode a tuple it returns is a view of the buffer,
// valid until the following Next.
type bufferedSource struct {
	g   *spillingGroupBy
	i   int
	hdr tuple.Tuple
}

func (s *bufferedSource) Next() (tuple.Tuple, error) {
	if s.i >= len(s.g.sorter.entries) {
		return nil, io.EOF
	}
	e := s.g.sorter.entries[s.i]
	s.i++
	if s.g.table != nil {
		return s.g.accs[e.rec], nil
	}
	s.hdr = s.g.ref(e).AppendFieldsTo(s.hdr[:0])
	return s.hdr, nil
}

// sortEntry is what the sort moves instead of a tuple: the tuple's
// normalized key, and where the tuple is. The normalized key is the
// first 8 bytes of field 0 read as a big-endian integer (shorter keys
// zero-padded), so integer order on it agrees with byte order on the
// keys as far as 8 bytes can tell.
type sortEntry struct {
	key   uint64
	frame uint32 // index of the tuple's frame (0 for a hash-mode accumulator)
	rec   uint32 // the tuple's position in its frame (in accs, in hash mode)
}

const sortEntryBytes = int64(unsafe.Sizeof(sortEntry{}))

func keyPrefix(k []byte) uint64 {
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var v uint64
	for i, b := range k {
		v |= uint64(b) << (56 - 8*i)
	}
	return v
}

// keySorter collects one entry per tuple, in arrival order, and sorts
// them into the order a stable sort of the tuples by bytes.Compare on
// field 0 would give.
type keySorter struct {
	entries []sortEntry
	// Of the first key: its normalized form and its length.
	first  uint64
	keyLen int
	// varying has a bit set wherever some normalized key differs from
	// the first.
	varying uint64
	// wide says that some key is longer than 8 bytes or differs in
	// length from the first, so that equal normalized keys no longer
	// mean equal keys.
	wide bool
}

func (s *keySorter) reset() {
	s.entries = s.entries[:0]
	s.varying, s.wide = 0, false
}

// grow makes room for n entries.
func (s *keySorter) grow(n int) {
	s.entries = append(make([]sortEntry, 0, n), s.entries...)
}

// add appends an entry; grow must have made room for it.
func (s *keySorter) add(key []byte, frame, rec uint32) {
	k, n := keyPrefix(key), len(s.entries)
	if n == 0 {
		s.first, s.keyLen = k, len(key)
	}
	s.varying |= k ^ s.first
	if len(key) > 8 || len(key) != s.keyLen {
		s.wide = true
	}
	s.entries = s.entries[:n+1]
	s.entries[n] = sortEntry{k, frame, rec}
}

// bucketMin is the number of entries from which splitting them into
// buckets first, at the price of 256 counters, makes the sort cheaper.
const bucketMin = 1024

// sort orders the entries by normalized key, then, if some key is wide,
// by the full key, which keyOf reads, then by arrival: a total order, so
// the sort need not be stable to give the result of a stable one. It
// first splits many entries, in place, into up to 256 buckets by the top
// 8 bits in which their normalized keys differ, and sorts each bucket.
func (s *keySorter) sort(keyOf func(sortEntry) []byte) {
	wide := s.wide
	order := func(a, b sortEntry) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		if wide {
			if c := bytes.Compare(keyOf(a), keyOf(b)); c != 0 {
				return c
			}
		}
		if a.frame != b.frame {
			return cmp.Compare(a.frame, b.frame)
		}
		return cmp.Compare(a.rec, b.rec)
	}
	es := s.entries
	if len(es) < bucketMin || s.varying == 0 {
		slices.SortFunc(es, order)
		return
	}
	shift := max(bits.Len64(s.varying)-8, 0)
	var count, next [256]int // per bucket: entries, and where the next one goes
	for _, e := range es {
		count[byte(e.key>>shift)]++
	}
	at := 0
	for b, n := range count {
		next[b], at = at, at+n
	}
	end := 0
	for b, n := range count {
		// Whatever is in bucket b's place and belongs elsewhere is swapped
		// to where its own bucket has room, until b holds only its own.
		for end += n; next[b] < end; {
			e := es[next[b]]
			if home := byte(e.key >> shift); int(home) != b {
				es[next[b]], es[next[home]] = es[next[home]], e
				next[home]++
			} else {
				next[b]++
			}
		}
		slices.SortFunc(es[end-n:end], order)
	}
}

// TupleSource is a pull iterator over a (usually sorted) tuple stream;
// Next returns io.EOF at the end. *storage.RunReader satisfies it.
type TupleSource interface {
	Next() (tuple.Tuple, error)
}

// RunSource reads a run back as views of the reader's frame, each valid
// until the following Next: for consumers that are done with a tuple
// before they ask for the next one (MergeSources, FullOuterMerge), where
// RunReader.Next would box every tuple.
type RunSource struct {
	rr  *storage.RunReader
	hdr tuple.Tuple
}

// NewRunSource wraps rr, which the caller still closes.
func NewRunSource(rr *storage.RunReader) *RunSource { return &RunSource{rr: rr} }

// Next returns the next tuple as a view, or io.EOF.
func (s *RunSource) Next() (tuple.Tuple, error) {
	r, err := s.rr.NextRef()
	if err != nil {
		return nil, err
	}
	s.hdr = r.AppendFieldsTo(s.hdr[:0])
	return s.hdr, nil
}

// SliceSource adapts an in-memory tuple slice to a TupleSource.
type SliceSource struct {
	ts []tuple.Tuple
	i  int
}

// NewSliceSource wraps ts (which must already be in the desired order).
func NewSliceSource(ts []tuple.Tuple) *SliceSource { return &SliceSource{ts: ts} }

// Next returns the next tuple or io.EOF.
func (s *SliceSource) Next() (tuple.Tuple, error) {
	if s.i >= len(s.ts) {
		return nil, io.EOF
	}
	t := s.ts[s.i]
	s.i++
	return t, nil
}

// mergeCursor is one source of a merge with its current tuple.
type mergeCursor struct {
	src TupleSource
	ord int // position among the sources
	t   tuple.Tuple
	key uint64 // keyPrefix(t[0]), compared before the bytes
}

func (c *mergeCursor) advance() error {
	t, err := c.src.Next()
	if err != nil {
		return err
	}
	c.t, c.key = t, keyPrefix(t[0])
	return nil
}

func (c *mergeCursor) less(o *mergeCursor) bool {
	if c.key != o.key {
		return c.key < o.key
	}
	if d := bytes.Compare(c.t[0], o.t[0]); d != 0 {
		return d < 0
	}
	return c.ord < o.ord
}

// siftDown restores the min-heap order of h below position i.
func siftDown(h []mergeCursor, i int) {
	for {
		least := 2*i + 1
		if least >= len(h) {
			return
		}
		if r := least + 1; r < len(h) && h[r].less(&h[least]) {
			least = r
		}
		if !h[least].less(&h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// MergeSources k-way merges sorted sources, folding equal keys through
// the combiner (when non-nil), and emits in ascending key order; tuples
// with equal keys are taken in the order of srcs, so merging the runs of
// a stable sort in the order they were written is again stable.
//
// A tuple need only stay valid until its source's next Next, and emit
// must not keep its argument.
func MergeSources(srcs []TupleSource, combiner Combiner, emit func(tuple.Tuple) error) error {
	h := make([]mergeCursor, 0, len(srcs))
	for i, s := range srcs {
		c := mergeCursor{src: s, ord: i}
		if err := c.advance(); err == io.EOF {
			continue
		} else if err != nil {
			return err
		}
		h = append(h, c)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	var acc, head tuple.Tuple
	var own []byte // the bytes of head
	for len(h) > 0 {
		cur := h[0].t
		switch {
		case combiner == nil:
			if err := emit(cur); err != nil {
				return err
			}
		case acc != nil && bytes.Equal(acc[0], cur[0]):
			acc = combiner.Add(acc, cur)
		default:
			if acc != nil {
				if err := emit(acc); err != nil {
					return err
				}
			}
			// The accumulator may be First's argument, and outlives cur:
			// give it a copy, each field without spare capacity.
			own, head = own[:0], head[:0]
			for _, f := range cur {
				own = append(own, f...)
			}
			at := 0
			for _, f := range cur {
				end := at + len(f)
				head = append(head, own[at:end:end])
				at = end
			}
			acc = combiner.First(head)
		}
		if err := h[0].advance(); err == io.EOF {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else if err != nil {
			return err
		}
		siftDown(h, 0)
	}
	if acc != nil {
		return emit(acc)
	}
	return nil
}
