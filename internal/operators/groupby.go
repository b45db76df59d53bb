// Package operators provides the data-parallel relational operators
// Pregelix composes into physical plans: an external sort, the three
// group-by implementations of Section 4 (sort-based, HashSort, and
// preclustered), index-based outer joins, and helpers for two-stage
// global aggregation.
//
// All operators are out-of-core capable: they meter their buffers against
// the task's operator-memory budget and spill sorted runs, when it is
// exhausted, to a node-local temporary file (one per operator, the runs
// its extents), then merge the runs on close.
// Buffered input is held as packed frames (one pooled byte buffer per
// frame) and sorted through 16-byte entries holding each tuple's
// normalized key and position, so the hot path moves no tuple bytes while
// sorting and performs no per-tuple or per-group heap allocation.
package operators

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync/atomic"
	"unsafe"

	"pregelix/internal/hyracks"
	"pregelix/internal/memory"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
)

// Combiner folds tuples that share a group key (field 0) into one
// accumulated tuple. Implementations must be insensitive to input order
// within a group (the paper's combine UDF contract), and must leave the
// key as it is.
//
// Aliasing contract: First may retain (alias) its argument, the header
// and the fields both, and may return it. What it is handed is the
// group's from then on: bytes the caller leaves alone for as long as it
// uses the accumulator, which under the hash group-by are the operator's
// own record of the group (every field cut at its length). The
// accumulator's fields are the combiner's to overwrite up to their
// length, or to replace; the hash group-by copies a replaced field back
// into its record, and keeps nothing else of what First or Add returned
// past the call. Add must NOT retain t or its field slices past the call,
// nor write into their bytes; it may only fold t's data into the
// accumulator, because t is typically a borrowed view into a transport
// frame that will be recycled.
type Combiner interface {
	// First starts an accumulator from the first tuple of a group. The
	// returned tuple may alias t, or be t.
	First(t tuple.Tuple) tuple.Tuple
	// Add folds t into acc, which is what First or the previous Add
	// returned or a view of the same fields, returning the new accumulator.
	Add(acc, t tuple.Tuple) tuple.Tuple
}

// GroupByKind selects a group-by implementation.
type GroupByKind int

const (
	// SortGroupBy pushes aggregation into both the in-memory sort phase
	// and the run-merge phase of an external sort.
	SortGroupBy GroupByKind = iota
	// HashSortGroupBy aggregates eagerly in a packed table, one record
	// per distinct key, sorting only on spill/emit; it wins when the
	// combiner's result keeps its size.
	HashSortGroupBy
	// PreclusteredGroupBy assumes input already clustered by key and
	// aggregates in a single streaming pass with O(1) state.
	PreclusteredGroupBy
)

// NewGroupByRuntime builds a group-by PushRuntime of the given kind.
// combiner may be nil, in which case the operator degenerates to an
// external sort (SortGroupBy/HashSortGroupBy) or a no-op pass-through
// (PreclusteredGroupBy). Output is emitted on port 0 in ascending key
// order for the sorting kinds, and in input order for preclustered.
func NewGroupByRuntime(tc *hyracks.TaskContext, kind GroupByKind, combiner Combiner) hyracks.PushRuntime {
	switch kind {
	case PreclusteredGroupBy:
		return newPreclusteredGroupBy(combiner)
	case HashSortGroupBy:
		return &spillingGroupBy{tc: tc, combiner: combiner, table: combiner != nil}
	default:
		return &spillingGroupBy{tc: tc, combiner: combiner}
	}
}

// NewExternalSortRuntime builds an external sort on field 0.
func NewExternalSortRuntime(tc *hyracks.TaskContext) hyracks.PushRuntime {
	return &spillingGroupBy{tc: tc}
}

// newPreclusteredGroupBy streams clustered input, folding adjacent tuples
// with equal keys: the fold of the merge, over one stream sorted already.
func newPreclusteredGroupBy(combiner Combiner) hyracks.PushRuntime {
	out := &folder{combiner: combiner}
	return &hyracks.FuncRuntime{
		OnOpen: func(b *hyracks.BaseRuntime) error {
			out.emitRef = func(r tuple.TupleRef) error { return b.EmitRef(0, r) }
			out.emit = func(t tuple.Tuple) error { return b.Emit(0, t) }
			return nil
		},
		OnRef: func(_ *hyracks.BaseRuntime, r tuple.TupleRef) error {
			k := r.Field(0)
			return out.add(r, keyPrefix(k), len(k) != 8)
		},
		OnClose: func(*hyracks.BaseRuntime) error { return out.flush() },
	}
}

// folder folds a key-ordered stream of tuples: it hands every tuple on to
// emitRef when there is no combiner, else folds each run of equal keys
// through the combiner and hands its accumulator to emit once the run
// ends. Neither callback may keep its argument.
type folder struct {
	combiner       Combiner
	emitRef        func(tuple.TupleRef) error
	emit           func(tuple.Tuple) error
	acc, hdr, head tuple.Tuple
	own            []byte // the bytes of head
	key            uint64 // the accumulator's normalized key
}

// add takes the next tuple, r, whose normalized key is key; wide says
// that its key is not exactly 8 bytes, so that an equal normalized key
// need not mean an equal key.
func (f *folder) add(r tuple.TupleRef, key uint64, wide bool) error {
	if f.combiner == nil {
		return f.emitRef(r)
	}
	f.hdr = r.AppendFieldsTo(f.hdr[:0])
	if f.acc != nil && key == f.key && (!wide && len(f.acc[0]) == 8 || bytes.Equal(f.acc[0], f.hdr[0])) {
		f.acc = f.combiner.Add(f.acc, f.hdr)
		return nil
	}
	if err := f.flush(); err != nil {
		return err
	}
	// The accumulator may be First's argument, and outlives r: give it a
	// copy.
	f.own, f.head = copyInto(f.own, f.head, f.hdr)
	f.acc, f.key = f.combiner.First(f.head), key
	return nil
}

// flush emits the accumulator, if there is one.
func (f *folder) flush() error {
	acc := f.acc
	if acc == nil {
		return nil
	}
	f.acc = nil
	return f.emit(acc)
}

// spillingGroupBy implements both the sort-based and HashSort group-bys
// (and, with a nil combiner, a plain external sort): one buffer of packed
// frames metered whole-buffer-at-a-time against the task's
// operator-memory budget, one slice of 16-byte entries saying where each
// buffered record lies, one spill of the sorted buffer as a run and one
// merge of the runs on close. The policies differ in what they buffer.
// Sort appends every tuple and an entry for it, and folds equal keys when
// the sorted buffer is drained. Hash (table) keeps one record per
// distinct key: the entry slice, at full length, is an open-addressing
// table (linear probing, a power of two of slots, at most 3/4 of them
// taken), a tuple whose key has a slot is folded into that group's record
// at once, and what is drained is folded already.
type spillingGroupBy struct {
	hyracks.BaseRuntime
	tc       *hyracks.TaskContext
	combiner Combiner
	table    bool

	budget *memory.Budget

	// The buffer: owned packed frames; the sorter's entries say where each
	// record is. Under the hash policy a record whose accumulator changed
	// length stays behind as garbage until the buffer is released.
	frames []*tuple.Frame
	app    tuple.FrameAppender

	// sorter holds one entry per buffered tuple, or the table, live of
	// whose slots are taken. Its slice is kept from spill to spill and is
	// on the budget at capacity: entryBytes is what the budget holds for it.
	sorter     keySorter
	entryBytes int64
	live       int

	// Fold headers: the accumulator's fields and the folded tuple's.
	head, scratch tuple.Tuple
	// carried owns the bytes of an accumulator taken out of the table.
	carried []byte

	// file holds every run spilled, one after the other, from the first
	// spill on; runs are their extents in it, oldest first.
	file   *storage.RunFile
	runs   []storage.Run
	failed bool
}

// spilledRuns counts the runs the process's spilling operators have
// written.
var spilledRuns atomic.Int64

// SpilledRuns returns how many runs the process's group-bys and external
// sorts have spilled so far (benchmarks report it per operation).
func SpilledRuns() int64 { return spilledRuns.Load() }

// minSortEntries is the first capacity of the entry slice (the first
// table): small, because most group-bys of a sparse superstep see a tuple
// or two.
const minSortEntries = 16

func (g *spillingGroupBy) Open() error {
	cap := g.tc.OperatorMem
	g.budget = g.tc.Node.RAM.Child("groupby-"+g.tc.OperatorID+"-p"+strconv.Itoa(g.tc.Partition), cap)
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
	if g.table {
		return g.fold(r)
	}
	// An entry slot first (making room may spill, which also empties the
	// frames), then the packed record into the operator's own frames.
	if n := len(g.sorter.entries); n == cap(g.sorter.entries) {
		// The first slice is taken even from a budget too small for it,
		// or nothing could be buffered at all.
		if !g.growEntries(max(2*n, minSortEntries), n == 0) && !g.growEntries(n+g.roomFor(n), false) {
			if err := g.spill(); err != nil {
				return err
			}
		}
	}
	off, err := g.buffer(r, nil)
	if err != nil {
		return err
	}
	g.sorter.add(r.Field(0), uint32(len(g.frames)), off)
	return nil
}

// roomFor says by how many entries a full slice of n still grows once the
// budget has refused to double it: by as many tuples as the budget's free
// bytes hold, an entry and its share of the frames each, if those bytes
// would hold n/8 entries or more; else by none, for copying the slice
// would cost more than the longer run saves.
func (g *spillingGroupBy) roomFor(n int) int {
	free := g.budget.Remaining()
	if free/sortEntryBytes < int64(n/8) {
		return 0
	}
	return int(free / (sortEntryBytes + int64(len(g.frames))*tuple.DefaultFrameSize/int64(n)))
}

// growEntries makes room for n entries (slots, under the hash policy), if
// that is more than there is room for, if the budget takes the growth,
// and also if it does not when must is set.
func (g *spillingGroupBy) growEntries(n int, must bool) bool {
	need := int64(n-cap(g.sorter.entries)) * sortEntryBytes
	if need == 0 {
		return false
	}
	if g.budget.TryAllocate(need) {
		g.entryBytes += need
	} else if !must {
		return false
	}
	if g.table {
		g.sorter.rehash(n)
	} else {
		g.sorter.grow(n)
	}
	return true
}

// put copies a record (r, or the fields t if t is not nil) into the
// operator's frames and returns its offset in the last of them. When that
// frame is full it takes another from the budget; if the budget refuses,
// put reports false and has appended nothing, unless must is set: then
// the frame is taken unmetered, which is how a budget smaller than one
// frame buffers anything (it spills again as soon as the frame fills).
func (g *spillingGroupBy) put(r tuple.TupleRef, t tuple.Tuple, must bool) (uint32, bool) {
	appendIt := func() bool {
		if t != nil {
			return g.app.Append(t...)
		}
		return g.app.AppendRef(r)
	}
	if f := g.app.Frame(); f != nil {
		if off := f.DataBytes(); appendIt() {
			return uint32(off), true
		}
	}
	if !g.budget.TryAllocate(tuple.DefaultFrameSize) && !must {
		return 0, false
	}
	f := tuple.GetFrame()
	g.frames = append(g.frames, f)
	g.app.Reset(f)
	// Pooled frames may arrive pre-grown (up to 4x) from an earlier
	// oversized tuple; meter only growth this append causes, not the
	// frame's history, and that best-effort.
	capBefore := f.Cap()
	if !appendIt() {
		panic("groupby: tuple does not fit an empty frame")
	}
	if grown := f.Cap() - capBefore; grown > 0 {
		g.budget.TryAllocate(int64(grown))
	}
	return 0, true
}

// buffer is put that spills when the budget has no frame left; t, if
// given, must not be a view of the buffer, which the spill releases.
func (g *spillingGroupBy) buffer(r tuple.TupleRef, t tuple.Tuple) (uint32, error) {
	off, ok := g.put(r, t, false)
	if !ok {
		if err := g.spill(); err != nil {
			return 0, err
		}
		off, _ = g.put(r, t, true)
	}
	return off, nil
}

// fold is add under the hash policy: r is folded into the record of its
// key's group, or starts that group.
func (g *spillingGroupBy) fold(r tuple.TupleRef) error {
	g.scratch = r.AppendFieldsTo(g.scratch[:0])
	key := g.scratch[0]
	k := keyPrefix(key)
	es := g.sorter.entries
	for i := slotOf(k, len(es)); len(es) > 0 && es[i].frame != 0; i = (i + 1) & (len(es) - 1) {
		if es[i].key != k {
			continue
		}
		rec := g.ref(es[i])
		g.head = rec.AppendFieldsTo(g.head[:0])
		if bytes.Equal(g.head[0], key) {
			return g.keep(i, rec, g.combiner.Add(g.head, g.scratch))
		}
	}
	i, err := g.insert(k, len(key), r, nil)
	if err != nil {
		return err
	}
	rec := g.ref(g.sorter.entries[i])
	g.head = rec.AppendFieldsTo(g.head[:0])
	return g.keep(i, rec, g.combiner.First(g.head))
}

// insert buffers the record of a group the table does not hold (r, or
// the fields t) and gives it a slot, whose index it returns.
func (g *spillingGroupBy) insert(k uint64, keyLen int, r tuple.TupleRef, t tuple.Tuple) (int, error) {
	// Room in the table first: the spill that makes it empties the frames.
	if n := len(g.sorter.entries); 4*(g.live+1) > 3*n && !g.growEntries(max(2*n, minSortEntries), n == 0) {
		if err := g.spill(); err != nil {
			return 0, err
		}
	}
	off, err := g.buffer(r, t)
	if err != nil {
		return 0, err
	}
	i := g.sorter.freeSlot(k)
	g.sorter.entries[i] = sortEntry{k, uint32(len(g.frames)), off}
	g.sorter.observe(k, keyLen)
	g.live++
	return i, nil
}

// keep makes res, the combiner's result for the group in slot i, that
// group's record rec: in place if no field changed length, else as a new
// record, the old one staying behind as garbage.
func (g *spillingGroupBy) keep(i int, rec tuple.TupleRef, res tuple.Tuple) error {
	if rec.Overwrite(res) {
		return nil
	}
	e := &g.sorter.entries[i]
	if off, ok := g.put(tuple.TupleRef{}, res, false); ok {
		e.frame, e.rec = uint32(len(g.frames)), off
		return nil
	}
	// No frame for it: the group leaves the table ahead of the spill that
	// makes room, so that no run holds it twice, and is the first of the
	// next buffer. Copied out, because res may be a view of this one.
	k := e.key
	e.frame = 0
	g.live--
	g.carried, g.scratch = copyInto(g.carried, g.scratch, res)
	if err := g.spill(); err != nil {
		return err
	}
	_, err := g.insert(k, len(g.scratch[0]), tuple.TupleRef{}, g.scratch)
	return err
}

// copyInto copies t's fields into buf[:0] and returns it, and over
// hdr[:0] a tuple whose fields are that copy, each without spare capacity.
func copyInto(buf []byte, hdr, t tuple.Tuple) ([]byte, tuple.Tuple) {
	buf, hdr = buf[:0], hdr[:0]
	for _, f := range t {
		buf = append(buf, f...)
	}
	at := 0
	for _, f := range t {
		end := at + len(f)
		hdr = append(hdr, buf[at:end:end])
		at = end
	}
	return buf, hdr
}

// sortBuffered puts what is buffered in key order: afterwards the
// sorter's entries list it, equal keys in arrival order.
func (g *spillingGroupBy) sortBuffered() {
	if g.table {
		g.sorter.compact()
	}
	g.sorter.sort(func(e sortEntry) []byte { return g.ref(e).Field(0) })
}

// ref returns the buffered record an entry stands for.
func (g *spillingGroupBy) ref(e sortEntry) tuple.TupleRef {
	return g.frames[e.frame-1].TupleAt(int(e.rec))
}

// drain merges the runs srcs, if any, with the sorted buffer, and emits
// the result: every record by reference when there is nothing to fold —
// no combiner, or the table's records alone — else equal keys folded
// through the combiner. Neither callback may keep its argument.
func (g *spillingGroupBy) drain(srcs []refSource, emitRef func(tuple.TupleRef) error, emit func(tuple.Tuple) error) error {
	combiner := g.combiner
	if g.table && len(srcs) == 0 {
		combiner = nil
	}
	i := 0
	buffered := func() (tuple.TupleRef, error) {
		if i == len(g.sorter.entries) {
			return tuple.TupleRef{}, io.EOF
		}
		i++
		return g.ref(g.sorter.entries[i-1]), nil
	}
	return mergeRuns(append(srcs, buffered), &folder{combiner: combiner, emitRef: emitRef, emit: emit})
}

// releaseMem drops the buffered tuples: frames go back to the pool and
// their bytes to the budget. The entry slice stays, emptied (a table:
// every slot free), and stays on the budget.
func (g *spillingGroupBy) releaseMem() {
	for _, f := range g.frames {
		tuple.PutFrame(f)
	}
	g.frames = nil
	g.app.Reset(nil)
	g.sorter.reset()
	if g.table {
		g.sorter.free()
		g.live = 0
	}
	if g.budget != nil {
		g.budget.Release(g.budget.Used() - g.entryBytes)
	}
}

// spill writes the sorted buffer, if it holds anything, as the next run
// of the operator's file and releases it. A failed spill leaves the file
// to cleanup.
func (g *spillingGroupBy) spill() error {
	g.sortBuffered()
	if len(g.sorter.entries) > 0 {
		if g.file == nil {
			g.file = storage.NewRunFile(g.tc.TempPath("runs"))
		}
		if err := g.drain(nil, g.file.AppendRef, g.file.Append); err != nil {
			return err
		}
		run, err := g.file.Cut()
		if err != nil {
			return err
		}
		g.tc.AddIOBytes(run.PayloadBytes())
		g.runs = append(g.runs, run)
		spilledRuns.Add(1)
	}
	g.releaseMem()
	return nil
}

func (g *spillingGroupBy) Fail(err error) {
	g.failed = true
	g.cleanup()
	g.FailOutputs(err)
}

func (g *spillingGroupBy) cleanup() {
	if g.file != nil {
		g.file.Delete()
		g.file = nil
	}
	g.runs = nil
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
	// The spilled runs, oldest first, then the in-memory remainder: the
	// merge keeps equal keys in source order, which is arrival order. Every
	// run is read through the file's one descriptor.
	srcs := make([]refSource, 0, len(g.runs)+1)
	for _, r := range g.runs {
		rr := g.file.ReadRun(r)
		defer rr.Close()
		srcs = append(srcs, rr.NextRef)
	}
	return g.drain(srcs, func(r tuple.TupleRef) error { return g.EmitRef(0, r) }, func(t tuple.Tuple) error { return g.Emit(0, t) })
}

// sortEntry is what the sort moves instead of a tuple: the tuple's
// normalized key, and where the tuple is. The normalized key is the
// first 8 bytes of field 0 read as a big-endian integer (shorter keys
// zero-padded), so integer order on it agrees with byte order on the
// keys as far as 8 bytes can tell.
type sortEntry struct {
	key   uint64
	frame uint32 // which of the frames holds the tuple, counted from 1: 0 is a free slot of the table
	rec   uint32 // the byte offset of the tuple's record in its frame
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
	// seen says that there is a first key.
	seen bool
}

func (s *keySorter) reset() {
	s.entries = s.entries[:0]
	s.varying, s.wide, s.seen = 0, false, false
}

// grow makes room for n entries.
func (s *keySorter) grow(n int) {
	s.entries = append(make([]sortEntry, 0, n), s.entries...)
}

// add appends an entry; grow must have made room for it.
func (s *keySorter) add(key []byte, frame, rec uint32) {
	k, n := keyPrefix(key), len(s.entries)
	s.observe(k, len(key))
	s.entries = s.entries[:n+1]
	s.entries[n] = sortEntry{k, frame, rec}
}

// observe notes the normalized form and the length of a key some entry
// holds, which is what sort goes by.
func (s *keySorter) observe(k uint64, keyLen int) {
	if !s.seen {
		s.first, s.keyLen, s.seen = k, keyLen, true
	}
	s.varying |= k ^ s.first
	if keyLen > 8 || keyLen != s.keyLen {
		s.wide = true
	}
}

// The entries as a table: the slice at full length, a power of two, a
// key's slot the first free one (frame 0) at or after slotOf.

// slotOf is where the probe for normalized key k starts in a table of n
// slots: the low bits of a 64-bit mix (the finalizer of MurmurHash3), so
// that keys apart by a stride, or alike in their low bytes, spread out.
func slotOf(k uint64, n int) int {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return int(k) & (n - 1)
}

func (s *keySorter) freeSlot(k uint64) int {
	i := slotOf(k, len(s.entries))
	for s.entries[i].frame != 0 {
		i = (i + 1) & (len(s.entries) - 1)
	}
	return i
}

// rehash makes the table n slots, moving the taken ones by their
// normalized keys alone: they are of distinct keys already.
func (s *keySorter) rehash(n int) {
	old := s.entries
	s.entries = make([]sortEntry, n)
	for _, e := range old {
		if e.frame != 0 {
			s.entries[s.freeSlot(e.key)] = e
		}
	}
}

// free makes the emptied slice a table again, every slot free.
func (s *keySorter) free() {
	s.entries = s.entries[:cap(s.entries)]
	clear(s.entries)
}

// compact ends the table: the taken slots move to the front and are the
// entries.
func (s *keySorter) compact() {
	n := 0
	for _, e := range s.entries {
		if e.frame != 0 {
			s.entries[n] = e
			n++
		}
	}
	s.entries = s.entries[:n]
}

// radixLeaf is the number of entries up to which a bucket of the radix
// partition is finished by the total order instead of partitioned again
// (BenchmarkGroupBy* at the 64 KiB carve).
const radixLeaf = 32

// sort orders the entries by normalized key, then, if some key is wide,
// by the full key, which keyOf reads, then by arrival: a total order, so
// the sort need not be stable to give the result of a stable one. It
// partitions the entries in place by their normalized keys, 8 of the
// varying bits at a time from the top, until a bucket holds one
// normalized key or at most radixLeaf entries, and finishes each bucket
// by the total order.
func (s *keySorter) sort(keyOf func(sortEntry) []byte) {
	if !s.wide {
		keyOf = nil
	}
	sortBucket(s.entries, s.varying, keyOf)
}

// entryBefore is the sort's total order: normalized key, then the full
// key if keyOf is given, then arrival.
func entryBefore(a, b sortEntry, keyOf func(sortEntry) []byte) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if keyOf != nil {
		if c := bytes.Compare(keyOf(a), keyOf(b)); c != 0 {
			return c < 0
		}
	}
	return a.frame < b.frame || a.frame == b.frame && a.rec < b.rec
}

// sortBucket sorts entries whose normalized keys differ only in the bits
// of varying: by partitioning them if there are many and they differ,
// else by the total order, a few by insertion, more of one normalized key
// by pdqsort (no two entries are equal under the order).
func sortBucket(es []sortEntry, varying uint64, keyOf func(sortEntry) []byte) {
	switch {
	case len(es) > radixLeaf && varying != 0:
		radixPartition(es, varying, keyOf)
	case len(es) > radixLeaf:
		slices.SortFunc(es, func(a, b sortEntry) int {
			if entryBefore(a, b, keyOf) {
				return -1
			}
			return 1
		})
	default:
		for i := 1; i < len(es); i++ {
			e, j := es[i], i
			for ; j > 0 && entryBefore(e, es[j-1], keyOf); j-- {
				es[j] = es[j-1]
			}
			es[j] = e
		}
	}
}

// radixPartition splits es in place into up to 256 buckets by the top 8
// bits of varying and sorts each bucket on the varying bits below those.
// Its counters are in a frame of its own, so that a sort of a few entries
// on a fresh goroutine does not grow that goroutine's stack.
func radixPartition(es []sortEntry, varying uint64, keyOf func(sortEntry) []byte) {
	shift := max(bits.Len64(varying)-8, 0)
	var count, next [256]uint32 // per bucket: entries, and where the next one goes
	for _, e := range es {
		count[byte(e.key>>shift)]++
	}
	at := uint32(0)
	for b, n := range count {
		next[b], at = at, at+n
	}
	end := uint32(0)
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
		sortBucket(es[end-n:end], varying&(1<<shift-1), keyOf)
	}
}

// TupleSource is a pull iterator over a (usually sorted) tuple stream;
// Next returns io.EOF at the end. *storage.RunReader satisfies it.
type TupleSource interface {
	Next() (tuple.Tuple, error)
}

// RunSource reads a run back as views of the reader's frame, each valid
// until the following Next: for consumers that are done with a tuple
// before they ask for the next one (the joins' Msg input), where
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

// refSource yields one sorted input of a merge as views: a ref need stay
// valid only until the source's next call. A RunReader's NextRef is one.
type refSource func() (tuple.TupleRef, error)

// mergeNode is a player of the merge's loser tree: a source's current
// normalized key and which source it is, with doneBit set once the source
// is done (its key then the largest), so that it loses to every source
// that is not.
type mergeNode struct {
	key uint64
	src uint32
}

const doneBit = 1 << 31

// loserTree merges sorted sources: with k of them, nodes[1:k] hold the
// loser of each match of a tournament whose leaves, k to 2k-1, are the
// sources in order, and nodes[0] the winner. Advancing the winner replays
// only its path to the root: log2(k) comparisons of normalized keys.
type loserTree struct {
	srcs  []refSource
	cur   []tuple.TupleRef // each source's current tuple
	wide  []bool           // whether that tuple's key is wide: not exactly 8 bytes
	nodes []mergeNode
}

// before says whether player a goes before player b: by normalized key,
// then by the keys' bytes, which are read only if one of them is wide,
// then by source, so that equal keys leave the merge in source order.
func (t *loserTree) before(a, b mergeNode) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if (a.src|b.src)&doneBit == 0 && (t.wide[a.src] || t.wide[b.src]) {
		if c := bytes.Compare(t.cur[a.src].Field(0), t.cur[b.src].Field(0)); c != 0 {
			return c < 0
		}
	}
	return a.src < b.src
}

// read moves source s on and returns its player.
func (t *loserTree) read(s uint32) (mergeNode, error) {
	r, err := t.srcs[s]()
	if err != nil {
		if err == io.EOF {
			err = nil
		}
		return mergeNode{math.MaxUint64, s | doneBit}, err
	}
	k := r.Field(0)
	t.cur[s], t.wide[s] = r, len(k) != 8
	return mergeNode{keyPrefix(k), s}, nil
}

// build reads the first tuple of every source below node i, plays the
// matches there, keeps each loser and returns the winner.
func (t *loserTree) build(i int) (mergeNode, error) {
	if k := len(t.nodes); i >= k {
		return t.read(uint32(i - k))
	}
	a, errA := t.build(2 * i)
	b, errB := t.build(2*i + 1)
	if t.before(b, a) {
		a, b = b, a
	}
	t.nodes[i] = b
	return a, cmp.Or(errA, errB)
}

// advance moves the winner's source on and replays its path. A match is
// decided by selects, not by a branch, which a merge of random keys would
// mispredict at every other level; only a tie of normalized keys branches.
func (t *loserTree) advance() error {
	s := t.nodes[0].src
	n, err := t.read(s)
	for i := (int(s) + len(t.nodes)) / 2; i > 0; i /= 2 {
		o := t.nodes[i]
		first := o.key < n.key
		if o.key == n.key {
			first = t.before(o, n)
		}
		w, l := n, o
		if first {
			w, l = o, n
		}
		t.nodes[i], n = l, w
	}
	t.nodes[0] = n
	return err
}

// mergeRuns k-way merges sorted sources into out in ascending key order.
// Tuples with equal keys are taken in the order of srcs, so merging the
// runs of a stable sort in the order they were written is again stable.
func mergeRuns(srcs []refSource, out *folder) error {
	k := len(srcs)
	if k == 0 {
		return nil
	}
	t := &loserTree{srcs: srcs, cur: make([]tuple.TupleRef, k), wide: make([]bool, k), nodes: make([]mergeNode, k)}
	w, err := t.build(1)
	for t.nodes[0] = w; err == nil && w.src&doneBit == 0; w = t.nodes[0] {
		if err = out.add(t.cur[w.src], w.key, t.wide[w.src]); err == nil {
			err = t.advance()
		}
	}
	if err == nil {
		err = out.flush()
	}
	return err
}

// MergeSources k-way merges sorted sources, folding equal keys through
// the combiner (when non-nil), and emits in ascending key order; tuples
// with equal keys are taken in the order of srcs, so merging the runs of
// a stable sort in the order they were written is again stable. It is
// the operators' merge over boxed tuples.
//
// A tuple need only stay valid until its source's next Next, and emit
// must not keep its argument.
func MergeSources(srcs []TupleSource, combiner Combiner, emit func(tuple.Tuple) error) error {
	refs := make([]refSource, len(srcs))
	for i, s := range srcs {
		// Each tuple is packed alone into a frame of its source's.
		fr := tuple.GetFrame()
		defer tuple.PutFrame(fr)
		refs[i] = func() (tuple.TupleRef, error) {
			t, err := s.Next()
			if err != nil {
				return tuple.TupleRef{}, err
			}
			fr.Reset()
			tuple.NewFrameAppender(fr).Append(t...) // an empty frame takes any tuple
			return fr.Tuple(0), nil
		}
	}
	out := &folder{combiner: combiner, emit: emit}
	out.emitRef = func(r tuple.TupleRef) error {
		out.hdr = r.AppendFieldsTo(out.hdr[:0])
		return emit(out.hdr)
	}
	return mergeRuns(refs, out)
}
