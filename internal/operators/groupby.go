// Package operators provides the data-parallel relational operators
// Pregelix composes into physical plans: an external sort, the three
// group-by implementations of Section 4 (sort-based, HashSort, and
// preclustered) plus HashSort's table drained in no particular order for
// a consumer that hashes its input again, index-based outer joins, and
// helpers for two-stage global aggregation. The sort, the sort-based
// group-by and HashSort emit in key order; the preclustered group-by in
// input order; the unordered table in the order of its slots unless it
// spilled, and then in key order.
//
// All operators are out-of-core capable: they meter their buffers against
// the task's operator-memory budget and spill sorted runs, when it is
// exhausted, to a node-local temporary file (one per operator, the runs
// its extents), then merge the runs on close.
// Buffered input is held as packed frames (one pooled byte buffer per
// frame) and sorted through 16-byte entries holding each tuple's
// normalized key and position, so the hot path moves no tuple bytes while
// sorting and performs no per-tuple or per-group heap allocation.
//
// One rule picks how groups fold, from the combiner alone: a combiner
// that is a WordFolder with a fold is folded as words, everywhere. A hash
// group-by over one is a word table, whose 16-byte slot holds a group's
// key and its accumulator, and buffers no records at all: a group's
// record is written only when it leaves the table, for a spill, the merge
// or the output. The merge folds such groups as two words, the key and
// the accumulator. A hash group-by over any other combiner, or none, is
// the sort group-by, and its merge folds through First and Add.
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
// group's from then on: the merge's own copy of the group's first tuple
// (every field cut at its length), which the merge leaves alone for as
// long as it uses the accumulator. The accumulator's fields are the
// combiner's to overwrite up to their length, or to replace. Add must
// NOT retain t or its field slices past the call, nor write into their
// bytes; it may only fold t's data into the accumulator, because t is
// typically a borrowed view into a transport frame that will be
// recycled.
//
// A Combiner that is also a WordFolder with a fold is folded as words,
// and neither First nor Add is called.
type Combiner interface {
	// First starts an accumulator from the first tuple of a group. The
	// returned tuple may alias t, or be t.
	First(t tuple.Tuple) tuple.Tuple
	// Add folds t into acc, which is what First or the previous Add
	// returned or a view of the same fields, returning the new accumulator.
	Add(acc, t tuple.Tuple) tuple.Tuple
}

// WordFolder is a Combiner whose payloads are all one width of 1 to 8
// bytes that fold as words: a payload's bytes read as a little-endian
// integer. WordFold returns the fold of two such words and the width, or
// a nil fold when the combiner has none. Every group-by folds a combiner
// with a fold as words: a hash group-by in the slots of a word table, the
// merge (of runs, of a sorted buffer, of a preclustered stream, and
// MergeSources) in two words it keeps for the group at hand. Every key
// must then be 8 bytes and every payload width bytes, or the group-by
// panics with a corrupt message. A group of one tuple is that tuple, and
// the fold's result, written back as width little-endian bytes, must be
// the payload Add would leave.
type WordFolder interface {
	WordFold() (fold func(acc, in uint64) uint64, width int)
}

// words is a combiner's word fold, the width of the payloads it folds,
// and the buffer a group's record is written into as it leaves.
type words struct {
	fold  func(acc, in uint64) uint64
	width int
	buf   [16]byte
	rec   tuple.Tuple // the record over buf: its key, then its payload
}

// wordsOf returns the combiner's word fold, or nil if it has none.
func wordsOf(c Combiner) *words {
	wf, ok := c.(WordFolder)
	if !ok {
		return nil
	}
	fold, width := wf.WordFold()
	if fold == nil {
		return nil
	}
	w := &words{fold: fold, width: width}
	w.rec = tuple.Tuple{w.buf[:8], w.buf[8 : 8+width]}
	return w
}

// read returns a tuple's 8-byte key and its payload as words.
func (w *words) read(key, in []byte) (k, v uint64) {
	if len(key) != 8 || len(in) != w.width {
		w.corrupt(key, in)
	}
	if len(in) == 8 {
		v = binary.LittleEndian.Uint64(in)
	} else {
		for i, b := range in {
			v |= uint64(b) << (8 * i)
		}
	}
	return binary.BigEndian.Uint64(key), v
}

func (w *words) corrupt(key, in []byte) {
	panic("groupby: corrupt message: a " + strconv.Itoa(len(key)) + "-byte key and a " + strconv.Itoa(len(in)) + "-byte payload among " + strconv.Itoa(w.width) + "-byte words")
}

// record returns the record of the group of key k whose accumulator is
// acc, valid until the next call.
func (w *words) record(k, acc uint64) tuple.Tuple {
	binary.BigEndian.PutUint64(w.buf[:8], k)
	binary.LittleEndian.PutUint64(w.buf[8:], acc)
	return w.rec
}

// GroupByKind selects a group-by implementation.
type GroupByKind int

const (
	// SortGroupBy pushes aggregation into both the in-memory sort phase
	// and the run-merge phase of an external sort.
	SortGroupBy GroupByKind = iota
	// HashSortGroupBy aggregates eagerly in a word table, one slot per
	// distinct key, sorting only on spill/emit. Without a combiner that
	// folds words it is SortGroupBy.
	HashSortGroupBy
	// PreclusteredGroupBy assumes input already clustered by key and
	// aggregates in a single streaming pass with O(1) state.
	PreclusteredGroupBy
	// UnorderedHashGroupBy is HashSortGroupBy for a consumer that does not
	// need key order, such as a partitioning connector into a hashing
	// receiver: when nothing spilled, its groups leave unsorted.
	UnorderedHashGroupBy
)

// NewGroupByRuntime builds a group-by PushRuntime of the given kind.
// combiner may be nil, in which case the operator degenerates to an
// external sort (SortGroupBy, HashSortGroupBy, UnorderedHashGroupBy) or a
// no-op pass-through (PreclusteredGroupBy). A hash kind is a word table
// when the combiner is a WordFolder with a fold, and otherwise the sort
// group-by. Output is emitted on port 0: in ascending key order by
// SortGroupBy and HashSortGroupBy (and by UnorderedHashGroupBy unless it
// is a word table that never spilled), in input order by
// PreclusteredGroupBy, and otherwise by UnorderedHashGroupBy in no order
// the caller may rely on, each key once.
//
// The runtime of every kind but PreclusteredGroupBy also takes tuples one
// at a time from their fields, with no frame between (AddFields).
func NewGroupByRuntime(tc *hyracks.TaskContext, kind GroupByKind, combiner Combiner) hyracks.PushRuntime {
	w := wordsOf(combiner)
	switch {
	case kind == PreclusteredGroupBy:
		return newPreclusteredGroupBy(combiner, w)
	case w != nil && (kind == HashSortGroupBy || kind == UnorderedHashGroupBy):
		return &spillingGroupBy{tc: tc, combiner: combiner, words: w, table: true, unordered: kind == UnorderedHashGroupBy}
	}
	return &spillingGroupBy{tc: tc, combiner: combiner, words: w}
}

// NewExternalSortRuntime builds an external sort on field 0.
func NewExternalSortRuntime(tc *hyracks.TaskContext) hyracks.PushRuntime {
	return &spillingGroupBy{tc: tc}
}

// newPreclusteredGroupBy streams clustered input, folding adjacent tuples
// with equal keys: the fold of the merge, over one stream sorted already.
func newPreclusteredGroupBy(combiner Combiner, w *words) hyracks.PushRuntime {
	out := &folder{combiner: combiner, words: w}
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
// and hands the group's record to emit once the run ends. Neither
// callback may keep its argument.
type folder struct {
	combiner Combiner
	// words, if not nil, folds the groups as words: word is the
	// accumulator of the group of key.
	words   *words
	word    uint64
	emitRef func(tuple.TupleRef) error
	emit    func(tuple.Tuple) error
	// Otherwise acc is the accumulator, First's or Add's, head the copy of
	// the group's first tuple First was handed, over the bytes own.
	acc, hdr, head tuple.Tuple
	own            []byte
	key            uint64 // the group's normalized key
	open           bool   // there is a group
}

// add takes the next tuple, r, whose normalized key is key; wide says
// that its key is not exactly 8 bytes, so that an equal normalized key
// need not mean an equal key.
func (f *folder) add(r tuple.TupleRef, key uint64, wide bool) error {
	if f.combiner == nil {
		return f.emitRef(r)
	}
	if f.words != nil {
		k, in, _ := r.Pair()
		vid, w := f.words.read(k, in)
		if f.open && vid == f.key {
			f.word = f.words.fold(f.word, w)
			return nil
		}
		if err := f.flush(); err != nil {
			return err
		}
		f.key, f.word, f.open = vid, w, true
		return nil
	}
	if f.open && key == f.key && (!wide && len(f.acc[0]) == 8 || bytes.Equal(f.acc[0], r.Field(0))) {
		f.hdr = r.AppendFieldsTo(f.hdr[:0])
		f.acc = f.combiner.Add(f.acc, f.hdr)
		return nil
	}
	if err := f.flush(); err != nil {
		return err
	}
	// The accumulator may be First's argument, and outlives r: give it a
	// copy.
	f.hdr = r.AppendFieldsTo(f.hdr[:0])
	f.own, f.head = copyInto(f.own, f.head, f.hdr)
	f.acc, f.key, f.open = f.combiner.First(f.head), key, true
	return nil
}

// flush emits the group's record, if there is a group.
func (f *folder) flush() error {
	if !f.open {
		return nil
	}
	f.open = false
	if f.words != nil {
		return f.emit(f.words.record(f.key, f.word))
	}
	return f.emit(f.acc)
}

// spillingGroupBy implements both the sort-based and HashSort group-bys
// (and, with a nil combiner, a plain external sort): one slice of 16-byte
// entries metered against the task's operator-memory budget, one spill of
// the sorted entries as a run and one merge of the runs on close. The
// policies differ in what they buffer. Sort appends every tuple to packed
// frames, metered whole-buffer-at-a-time, and an entry saying where it
// lies, and folds equal keys when the sorted buffer is drained. Hash (a
// word table) keeps one slot per distinct key, the key and the group's
// accumulator: the entry slice, at full length, is an open-addressing
// table (linear probing, a power of two of slots, at most 3/4 of them
// taken), a tuple whose key has a slot is folded into it at once, and
// what is drained is folded already. An unordered table that never
// spilled drains without sorting.
type spillingGroupBy struct {
	hyracks.BaseRuntime
	tc       *hyracks.TaskContext
	combiner Combiner
	// words is the combiner's word fold, nil if it has none; table says
	// that the group-by is a word table over it.
	words *words
	table bool
	// unordered says that the table's output need not be in key order.
	unordered bool

	budget *memory.Budget

	// The buffer of the sort policy: owned packed frames; the sorter's
	// entries say where each record is. A word table takes one frame, to
	// read its groups through as records in the merge.
	frames []*tuple.Frame
	app    tuple.FrameAppender

	// sorter holds one entry per buffered tuple, or the table, live of
	// whose slots are taken. Its slice is kept from spill to spill and is
	// on the budget at capacity: entryBytes is what the budget holds for it.
	sorter     keySorter
	entryBytes int64
	live       int
	// peak is the most groups the table held at once this round.
	peak int

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
	if g.table {
		g.takeTable()
	}
	return g.OpenOutputs()
}

// carriedTable is the table a hash group-by hands, emptied, to the same
// task's next round through its TaskContext's Carry, so that a round of
// as many groups as the last does not grow its table again from
// minSortEntries slots.
type carriedTable struct {
	entries []sortEntry // nil when no table is handed on
	// need is how many slots the handing round's most groups at once
	// needed: the fewest, at least minSortEntries, of which they take at
	// most 3/4.
	need int
}

// takeTable starts the table with the one the task's last round left, if
// the budget takes it; else the first insert takes minSortEntries slots,
// as on a fresh plan.
func (g *spillingGroupBy) takeTable() {
	c, _ := g.tc.Carry.(*carriedTable)
	if c == nil {
		return
	}
	es := c.entries
	c.entries = nil
	if n := int64(cap(es)) * sortEntryBytes; n > 0 && g.budget.TryAllocate(n) {
		g.sorter.entries, g.entryBytes = es, n
		g.sorter.free()
	}
}

// handOn leaves the table for the task's next round if this round or the
// one before it needed as many slots: one round of few groups between
// rounds of many keeps it, and a run of such rounds drops it at its
// second, so that they do not go on clearing a table they do not fill.
func (g *spillingGroupBy) handOn() {
	es := g.sorter.entries
	if !g.table || cap(es) == 0 {
		return
	}
	c, _ := g.tc.Carry.(*carriedTable)
	if c == nil {
		c = &carriedTable{}
		g.tc.Carry = c
	}
	need := minSortEntries
	for 4*g.peak > 3*need {
		need *= 2
	}
	if cap(es) <= max(need, c.need) {
		c.entries = es
	}
	c.need = need
}

func (g *spillingGroupBy) NextFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		if err := g.add(f.Tuple(i), nil); err != nil {
			return err
		}
	}
	return nil
}

// AddFields takes one tuple from its fields, as NextFrame takes each
// tuple of a frame: it is folded into its group's slot or buffered, so
// the caller may reuse the fields once it returns.
func (g *spillingGroupBy) AddFields(t tuple.Tuple) error {
	return g.add(tuple.TupleRef{}, t)
}

// add takes the next tuple: r, or the fields t if t is not nil.
func (g *spillingGroupBy) add(r tuple.TupleRef, t tuple.Tuple) error {
	if g.table {
		return g.fold(r, t)
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
	var key []byte
	if t != nil {
		key = t[0]
	} else {
		key = r.Field(0)
	}
	off, err := g.buffer(r, t)
	if err != nil {
		return err
	}
	g.sorter.add(key, uint32(len(g.frames)), off)
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

// fold is add in a word table: the tuple's (r's, or the fields t's)
// payload, read as a word, is folded into the accumulator of its key's
// group, or starts that group.
func (g *spillingGroupBy) fold(r tuple.TupleRef, t tuple.Tuple) error {
	var key, in []byte
	if t == nil {
		key, in, _ = r.Pair()
	} else if len(t) == 2 {
		key, in = t[0], t[1]
	}
	k, w := g.words.read(key, in)
	e, ok := g.sorter.wordSlot(k)
	if ok {
		e.setAcc(g.words.fold(e.acc(), w))
		return nil
	}
	if moved, err := g.makeRoom(); err != nil {
		return err
	} else if moved || e == nil {
		e, _ = g.sorter.wordSlot(k)
	}
	*e = sortEntry{key: k}
	e.setAcc(w)
	g.sorter.hasZero = g.sorter.hasZero || k == 0
	g.sorter.observe(k, 8)
	g.live++
	g.peak = max(g.peak, g.live)
	return nil
}

// makeRoom makes room in the table for one more group, by growing it or,
// if the budget refuses, by spilling, and says whether the slots moved.
func (g *spillingGroupBy) makeRoom() (bool, error) {
	n := len(g.sorter.entries)
	if 4*(g.live+1) <= 3*n {
		return false, nil
	}
	if g.growEntries(max(2*n, minSortEntries), n == 0) {
		return true, nil
	}
	return true, g.spill()
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
	g.sorter.sort(g.keyOf)
}

// ref returns the buffered record an entry stands for. A word table's
// group is written as a record when it is read, into the one frame the
// table takes, and is valid until the next call.
func (g *spillingGroupBy) ref(e sortEntry) tuple.TupleRef {
	if !g.table {
		return g.frames[e.frame-1].TupleAt(int(e.rec))
	}
	if len(g.frames) == 0 {
		g.frames = append(g.frames, tuple.GetFrame())
	}
	f := g.frames[0]
	f.Reset()
	g.app.Reset(f)
	g.app.Append(g.words.record(e.key, e.acc())...)
	return f.Tuple(0)
}

// keyOf returns the key of the buffered record an entry stands for.
func (g *spillingGroupBy) keyOf(e sortEntry) []byte { return g.ref(e).Field(0) }

// drain merges the runs srcs, if any, with the sorted buffer, and emits
// the result: every record by reference when there is no combiner, else
// equal keys folded. A word table's groups with no runs to merge are
// folded already, and leave as records. Neither callback may keep its
// argument.
func (g *spillingGroupBy) drain(srcs []refSource, emitRef func(tuple.TupleRef) error, emit func(tuple.Tuple) error) error {
	if g.table && len(srcs) == 0 {
		for _, e := range g.sorter.entries {
			if err := emit(g.words.record(e.key, e.acc())); err != nil {
				return err
			}
		}
		return nil
	}
	i := 0
	buffered := func() (tuple.TupleRef, error) {
		if i == len(g.sorter.entries) {
			return tuple.TupleRef{}, io.EOF
		}
		i++
		return g.ref(g.sorter.entries[i-1]), nil
	}
	return mergeRuns(append(srcs, buffered), &folder{combiner: g.combiner, words: g.words, emitRef: emitRef, emit: emit})
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
	g.handOn()
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
	if g.unordered && len(g.runs) == 0 {
		// An unordered table that never spilled leaves in slot order.
		g.sorter.compact()
	} else {
		g.sortBuffered()
	}
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
//
// In a word table the entry is a group's slot, and frame and rec hold
// the group's accumulator instead, its low and its high half.
type sortEntry struct {
	key   uint64
	frame uint32 // which of the frames holds the tuple, counted from 1
	rec   uint32 // the byte offset of the tuple's record in its frame
}

const sortEntryBytes = int64(unsafe.Sizeof(sortEntry{}))

// acc and setAcc read and write a word table's accumulator, as one word.
func (e *sortEntry) acc() uint64     { return uint64(e.frame) | uint64(e.rec)<<32 }
func (e *sortEntry) setAcc(w uint64) { e.frame, e.rec = uint32(w), uint32(w>>32) }

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
// field 0 would give. It is also a word table's slots.
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
	// In a word table a slot is free when its key is 0, and the group of
	// key 0 is zero, if hasZero says there is one.
	zero    sortEntry
	hasZero bool
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

// The entries as a word table: the slice at full length, a power of two,
// a key's slot the first free one at or after slotOf. A free slot is all
// zeros, and the table's keys are not 0.

// wordSlot returns the slot of the group of key k and true, or, if there
// is no such group, the free slot the probe for k ended on (nil if the
// table has no slots) and false.
func (s *keySorter) wordSlot(k uint64) (*sortEntry, bool) {
	if k == 0 {
		return &s.zero, s.hasZero
	}
	if len(s.entries) == 0 {
		return nil, false
	}
	mask := len(s.entries) - 1
	for i := s.slotOf(k); ; i = (i + 1) & mask {
		e := &s.entries[i]
		if e.key == k {
			return e, true
		}
		if e.key == 0 {
			return e, false
		}
	}
}

// mix64 is the finalizer of MurmurHash3: every bit of its result depends
// on every bit of k, so that keys apart by a stride, or alike in their
// low bytes, spread out.
func mix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// slotOf is where the probe for key k starts: the low bits of a mix of k.
func (s *keySorter) slotOf(k uint64) int {
	return int(mix64(k)) & (len(s.entries) - 1)
}

// rehash makes the table n slots, moving the taken ones by where their
// keys probe from: they are of distinct keys already, so none is
// compared.
func (s *keySorter) rehash(n int) {
	old := s.entries
	s.entries = make([]sortEntry, n)
	mask := n - 1
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		i := s.slotOf(e.key)
		for s.entries[i].key != 0 {
			i = (i + 1) & mask
		}
		s.entries[i] = e
	}
}

// free makes the emptied slice a table again, every slot free.
func (s *keySorter) free() {
	s.entries = s.entries[:cap(s.entries)]
	clear(s.entries)
	s.hasZero = false
}

// compact ends the table: the groups move to the front and are the
// entries, the group of key 0 last.
func (s *keySorter) compact() {
	n := 0
	for _, e := range s.entries {
		if e.key != 0 {
			s.entries[n] = e
			n++
		}
	}
	s.entries = s.entries[:n]
	if s.hasZero {
		s.entries = append(s.entries, s.zero)
	}
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
// the combiner (when non-nil; as words, if it folds words), and emits in
// ascending key order; tuples
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
	out := &folder{combiner: combiner, words: wordsOf(combiner), emit: emit}
	out.emitRef = func(r tuple.TupleRef) error {
		out.hdr = r.AppendFieldsTo(out.hdr[:0])
		return emit(out.hdr)
	}
	return mergeRuns(refs, out)
}
