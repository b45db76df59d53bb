package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// BTree is a disk-resident B+tree over a BufferCache file, keyed by opaque
// byte strings in raw byte order. It supports point lookups, upserts,
// deletes, ordered range scans, and bulk loading from a sorted stream.
//
// Vertex partitions are stored in B-trees keyed by the big-endian vid
// (Section 5.2): the index full outer join merges a sorted message stream
// against a leaf scan, and the index left outer join probes it per
// message.
//
// Concurrency: reads (Search, ScanFrom/Next) may run concurrently with
// each other and with a single writer. A tree-level RWMutex serializes
// mutations against reads, and a version counter lets an open Cursor
// detect that the tree changed under it (a leaf split moves records
// between pages in place) and re-seek from its last returned key instead
// of reading stale slots. The lock is never held between Next calls, so
// a goroutine may interleave its own scans and inserts freely; it is the
// query tier's license to scan a partition while supersteps or
// migrations mutate it.
type BTree struct {
	bc  *BufferCache
	fid FileID

	// mu serializes structural mutation (Insert, Delete, bulk-load root
	// install) against readers; ver is bumped under the write lock so
	// cursors can detect mutation and re-seek.
	mu  sync.RWMutex
	ver atomic.Uint64

	// Stats. Atomic: the query tier reads trees from many goroutines at
	// once, and plain increments here are a data race.
	Lookups, Inserts, Deletes atomic.Int64
}

const btreeMagic = 0xB7EE0001

var (
	// ErrNotFound is returned by Search when the key is absent.
	ErrNotFound = errors.New("storage: key not found")
	// ErrKeyTooLarge is returned when a record cannot fit in a page.
	ErrKeyTooLarge = errors.New("storage: record too large for page")
)

// CreateBTree initializes an empty B+tree in a fresh file at path.
func CreateBTree(bc *BufferCache, path string) (*BTree, error) {
	fid, err := bc.OpenFile(path)
	if err != nil {
		return nil, err
	}
	t := &BTree{bc: bc, fid: fid}
	if bc.NumPages(fid) > 0 {
		return nil, fmt.Errorf("btree: create on non-empty file %s", path)
	}
	meta, err := bc.NewPage(fid)
	if err != nil {
		return nil, err
	}
	root, err := bc.NewPage(fid)
	if err != nil {
		bc.Unpin(meta, true)
		return nil, err
	}
	initNodePage(root.Data, 0)
	rootPN := root.PageNum()
	bc.Unpin(root, true)
	binary.LittleEndian.PutUint32(meta.Data[0:], btreeMagic)
	binary.LittleEndian.PutUint32(meta.Data[4:], uint32(rootPN))
	bc.Unpin(meta, true)
	return t, nil
}

// OpenBTree opens an existing B+tree file.
func OpenBTree(bc *BufferCache, path string) (*BTree, error) {
	fid, err := bc.OpenFile(path)
	if err != nil {
		return nil, err
	}
	t := &BTree{bc: bc, fid: fid}
	meta, err := bc.Pin(fid, 0)
	if err != nil {
		return nil, err
	}
	defer bc.Unpin(meta, false)
	if binary.LittleEndian.Uint32(meta.Data[0:]) != btreeMagic {
		return nil, fmt.Errorf("btree: bad magic in %s", path)
	}
	return t, nil
}

// Close flushes the tree's pages and releases the file handle.
func (t *BTree) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ver.Add(1)
	return t.bc.CloseFile(t.fid)
}

// Drop closes the tree and deletes its file.
func (t *BTree) Drop() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ver.Add(1)
	return t.bc.DeleteFile(t.fid)
}

// Path returns the backing file path.
func (t *BTree) Path() string { return t.bc.Path(t.fid) }

func (t *BTree) root() (PageNum, error) {
	meta, err := t.bc.Pin(t.fid, 0)
	if err != nil {
		return 0, err
	}
	pn := PageNum(binary.LittleEndian.Uint32(meta.Data[4:]))
	t.bc.Unpin(meta, false)
	return pn, nil
}

func (t *BTree) setRoot(pn PageNum) error {
	meta, err := t.bc.Pin(t.fid, 0)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(meta.Data[4:], uint32(pn))
	t.bc.Unpin(meta, true)
	return nil
}

// Search returns a copy of the value stored under key, or ErrNotFound.
func (t *BTree) Search(key []byte) ([]byte, error) {
	t.Lookups.Add(1)
	t.mu.RLock()
	defer t.mu.RUnlock()
	pn, err := t.root()
	if err != nil {
		return nil, err
	}
	for {
		fr, err := t.bc.Pin(t.fid, pn)
		if err != nil {
			return nil, err
		}
		p := nodePage{fr.Data}
		if p.level() > 0 {
			next := p.childFor(key)
			t.bc.Unpin(fr, false)
			pn = next
			continue
		}
		i, ok := p.search(key)
		if !ok {
			t.bc.Unpin(fr, false)
			return nil, ErrNotFound
		}
		v := append([]byte(nil), p.value(i)...)
		t.bc.Unpin(fr, false)
		return v, nil
	}
}

// Insert upserts key=value.
func (t *BTree) Insert(key, value []byte) error {
	t.Inserts.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ver.Add(1)
	if 4+len(key)+len(value) > t.bc.PageSize-pageHeaderSize-2 {
		return fmt.Errorf("%w: key %d + value %d vs page %d",
			ErrKeyTooLarge, len(key), len(value), t.bc.PageSize)
	}
	rootPN, err := t.root()
	if err != nil {
		return err
	}
	splitKey, newPN, err := t.insert(rootPN, key, value)
	if err != nil {
		return err
	}
	if newPN == invalidPage {
		return nil
	}
	// Root split: create a new interior root.
	oldRoot, err := t.bc.Pin(t.fid, rootPN)
	if err != nil {
		return err
	}
	level := nodePage{oldRoot.Data}.level()
	t.bc.Unpin(oldRoot, false)
	nr, err := t.bc.NewPage(t.fid)
	if err != nil {
		return err
	}
	np := initNodePage(nr.Data, level+1)
	np.setLeftmost(rootPN)
	np.interiorInsertAt(0, splitKey, newPN)
	newRoot := nr.PageNum()
	t.bc.Unpin(nr, true)
	return t.setRoot(newRoot)
}

// insert descends from pn; on split it returns the separator key and the
// new right sibling's page number.
func (t *BTree) insert(pn PageNum, key, value []byte) ([]byte, PageNum, error) {
	fr, err := t.bc.Pin(t.fid, pn)
	if err != nil {
		return nil, invalidPage, err
	}
	p := nodePage{fr.Data}

	if p.level() > 0 {
		child := p.childFor(key)
		// Release during recursion: single-writer discipline makes this
		// safe, and it keeps pin depth constant.
		t.bc.Unpin(fr, false)
		sk, npn, err := t.insert(child, key, value)
		if err != nil || npn == invalidPage {
			return nil, invalidPage, err
		}
		fr, err = t.bc.Pin(t.fid, pn)
		if err != nil {
			return nil, invalidPage, err
		}
		p = nodePage{fr.Data}
		i, _ := p.search(sk)
		rec := 4 + len(sk) + 4
		if p.hasRoomFor(rec) {
			if p.freeSpace() < rec+2 {
				p.compact()
			}
			p.interiorInsertAt(i, sk, npn)
			t.bc.Unpin(fr, true)
			return nil, invalidPage, nil
		}
		// Split interior node.
		promoted, right, err := t.splitInterior(p, i, sk, npn)
		t.bc.Unpin(fr, true)
		return promoted, right, err
	}

	// Leaf.
	i, exact := p.search(key)
	if exact {
		old := p.recordSize(i)
		newSize := 4 + len(key) + len(value)
		if newSize <= old {
			// Overwrite in place.
			off := p.slotOff(i)
			binary.LittleEndian.PutUint16(p.data[off:], uint16(len(key)))
			binary.LittleEndian.PutUint16(p.data[off+2:], uint16(len(value)))
			copy(p.data[off+4:], key)
			copy(p.data[off+4+len(key):], value)
			t.bc.Unpin(fr, true)
			return nil, invalidPage, nil
		}
		p.removeSlot(i)
	}
	rec := 4 + len(key) + len(value)
	if p.hasRoomFor(rec) {
		if p.freeSpace() < rec+2 {
			p.compact()
		}
		p.leafInsertAt(i, key, value)
		t.bc.Unpin(fr, true)
		return nil, invalidPage, nil
	}
	sk, right, err := t.splitLeaf(p, i, key, value)
	t.bc.Unpin(fr, true)
	return sk, right, err
}

// splitLeaf moves the upper half of p to a fresh right sibling and inserts
// (key,value) into the correct half. Returns the first key of the right
// page as separator.
func (t *BTree) splitLeaf(p nodePage, insertAt int, key, value []byte) ([]byte, PageNum, error) {
	n := p.count()
	mid := n / 2
	if mid == 0 {
		mid = 1
	}
	nr, err := t.bc.NewPage(t.fid)
	if err != nil {
		return nil, invalidPage, err
	}
	rp := initNodePage(nr.Data, 0)
	for i := mid; i < n; i++ {
		rp.leafInsertAt(rp.count(), p.key(i), p.value(i))
	}
	// Truncate left half.
	p.setCount(mid)
	p.compact()
	rp.setNext(p.next())
	p.setNext(nr.PageNum())

	if insertAt >= mid {
		j, _ := rp.search(key)
		if rp.freeSpace() < 4+len(key)+len(value)+2 {
			rp.compact()
		}
		rp.leafInsertAt(j, key, value)
	} else {
		if p.freeSpace() < 4+len(key)+len(value)+2 {
			p.compact()
		}
		p.leafInsertAt(insertAt, key, value)
	}
	sep := append([]byte(nil), rp.key(0)...)
	right := nr.PageNum()
	t.bc.Unpin(nr, true)
	return sep, right, nil
}

// splitInterior splits interior page p while inserting (key,child) at slot
// insertAt. The middle key is promoted (not kept in either half).
func (t *BTree) splitInterior(p nodePage, insertAt int, key []byte, child PageNum) ([]byte, PageNum, error) {
	n := p.count()
	type entry struct {
		key   []byte
		child PageNum
	}
	entries := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		entries = append(entries, entry{append([]byte(nil), p.key(i)...), p.child(i)})
	}
	entries = append(entries[:insertAt], append([]entry{{append([]byte(nil), key...), child}}, entries[insertAt:]...)...)

	mid := len(entries) / 2
	promoted := entries[mid]

	nr, err := t.bc.NewPage(t.fid)
	if err != nil {
		return nil, invalidPage, err
	}
	rp := initNodePage(nr.Data, p.level())
	rp.setLeftmost(promoted.child)
	for _, e := range entries[mid+1:] {
		rp.interiorInsertAt(rp.count(), e.key, e.child)
	}

	left := entries[:mid]
	leftmost := p.leftmost()
	initNodePage(p.data, rp.level())
	p.setLeftmost(leftmost)
	for _, e := range left {
		p.interiorInsertAt(p.count(), e.key, e.child)
	}
	right := nr.PageNum()
	t.bc.Unpin(nr, true)
	return promoted.key, right, nil
}

// Delete removes key if present; it reports whether a record was removed.
// Deletion is lazy (no page merging), as in many production B-trees.
func (t *BTree) Delete(key []byte) (bool, error) {
	t.Deletes.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ver.Add(1)
	pn, err := t.root()
	if err != nil {
		return false, err
	}
	for {
		fr, err := t.bc.Pin(t.fid, pn)
		if err != nil {
			return false, err
		}
		p := nodePage{fr.Data}
		if p.level() > 0 {
			next := p.childFor(key)
			t.bc.Unpin(fr, false)
			pn = next
			continue
		}
		i, ok := p.search(key)
		if !ok {
			t.bc.Unpin(fr, false)
			return false, nil
		}
		p.removeSlot(i)
		t.bc.Unpin(fr, true)
		return true, nil
	}
}

// Cursor iterates leaf records in ascending key order. Each call briefly
// takes the tree's lock; between calls the cursor keeps its leaf pinned
// (so the frame cannot be evicted) but holds no lock, so a scan can
// interleave with mutations by the same or other goroutines. If the
// tree's version moved since the cursor was positioned, the pinned slots
// may have shifted (a split truncates the left leaf in place), so the
// next read re-seeks to the first key after the last one it returned
// before continuing.
type Cursor struct {
	t       *BTree
	fr      *PageFrame
	slot    int // of the next record to return
	err     error
	ver     uint64
	start   []byte // original scan start, for a re-seek before any record
	lastKey []byte // last key returned
	done    bool
	// onRec says that slot-1 of fr is the record returned (or found by
	// Seek) last, wrote that an Update has written into fr since it was
	// pinned.
	onRec, wrote bool
}

// ScanFrom positions a cursor at the first key >= start (nil start means
// the smallest key). Callers must Close the cursor.
func (t *BTree) ScanFrom(start []byte) (*Cursor, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	fr, slot, err := t.seekLocked(start)
	if err != nil {
		return nil, err
	}
	var s []byte
	if start != nil {
		s = append([]byte(nil), start...)
	}
	return &Cursor{t: t, fr: fr, slot: slot, ver: t.ver.Load(), start: s}, nil
}

// seekLocked descends to the leaf covering start and returns it pinned
// with the slot of the first key >= start. Caller holds at least the
// read lock.
func (t *BTree) seekLocked(start []byte) (*PageFrame, int, error) {
	pn, err := t.root()
	if err != nil {
		return nil, 0, err
	}
	for {
		fr, err := t.bc.Pin(t.fid, pn)
		if err != nil {
			return nil, 0, err
		}
		p := nodePage{fr.Data}
		if p.level() > 0 {
			var next PageNum
			if start == nil {
				next = p.leftmost()
			} else {
				next = p.childFor(start)
			}
			t.bc.Unpin(fr, false)
			pn = next
			continue
		}
		slot := 0
		if start != nil {
			slot, _ = p.search(start)
		}
		return fr, slot, nil
	}
}

// Next returns the next key/value pair (copies), or ok=false at the end.
func (c *Cursor) Next() (key, value []byte, ok bool) {
	c.t.mu.RLock()
	defer c.t.mu.RUnlock()
	if key, value, ok = c.nextLocked(); !ok {
		return nil, nil, false
	}
	return append([]byte(nil), key...), append([]byte(nil), value...), true
}

// NextView is Next without the copies: key and value are views of the
// pinned leaf, valid until the next call on the cursor and only while no
// other goroutine writes the tree (Next copies under the tree's lock and
// has no such condition).
func (c *Cursor) NextView() (key, value []byte, ok bool) {
	c.t.mu.RLock()
	defer c.t.mu.RUnlock()
	return c.nextLocked()
}

// Seek finds key and returns its value as a view of the pinned leaf, on
// NextView's terms, or ok=false if key is absent (Err reports a failed
// read). Found, the record is the one Update writes; absent, Update
// declines. A key on the leaf the cursor holds is found there without
// pinning another page; any other key costs one descent, and so does
// every key after the tree changed. The cursor stays where the key is:
// a NextView after Seek returns the first key above it.
func (c *Cursor) Seek(key []byte) (value []byte, ok bool) {
	c.t.mu.RLock()
	defer c.t.mu.RUnlock()
	c.onRec = false
	if c.err != nil {
		return nil, false
	}
	if v := c.t.ver.Load(); v != c.ver || !c.holds(key) {
		c.unpin()
		fr, _, err := c.t.seekLocked(key)
		if err != nil {
			c.err = err
			return nil, false
		}
		c.fr, c.ver = fr, v
	}
	p := nodePage{c.fr.Data}
	i, found := p.search(key)
	c.slot, c.done = i, false
	c.lastKey = append(c.lastKey[:0], key...)
	if !found {
		return nil, false
	}
	c.slot++
	c.onRec = true
	return p.value(i), true
}

// holds reports whether key lies between the first and the last key of
// the pinned leaf, which is where a descent for it would end.
func (c *Cursor) holds(key []byte) bool {
	if c.fr == nil {
		return false
	}
	p := nodePage{c.fr.Data}
	n := p.count()
	return n > 0 && bytes.Compare(key, p.key(0)) >= 0 && bytes.Compare(key, p.key(n-1)) <= 0
}

func (c *Cursor) nextLocked() (key, value []byte, ok bool) {
	c.onRec = false
	if c.err != nil || c.done {
		return nil, nil, false
	}
	if v := c.t.ver.Load(); v != c.ver {
		if err := c.reseekLocked(); err != nil {
			c.err = err
			return nil, nil, false
		}
		c.ver = v
	}
	for {
		if c.fr == nil {
			c.done = true
			return nil, nil, false
		}
		p := nodePage{c.fr.Data}
		if c.slot < p.count() {
			key, value = p.key(c.slot), p.value(c.slot)
			c.slot++
			c.lastKey = append(c.lastKey[:0], key...)
			c.onRec = true
			return key, value, true
		}
		next := p.next()
		c.unpin()
		if next == invalidPage {
			c.done = true
			return nil, nil, false
		}
		fr, err := c.t.bc.Pin(c.t.fid, next)
		if err != nil {
			c.err = err
			return nil, nil, false
		}
		c.fr = fr
		c.slot = 0
	}
}

// Update overwrites, in the leaf the cursor has pinned, the value of the
// record it returned or found last, and reports whether it did. It
// declines when there is no such record (before the first read, after
// the last, after a Seek of an absent key), when
// the new value is longer than the old one, and when the tree changed
// since that read (the slot may have moved): the caller then goes
// through Insert. It takes the tree's write lock, so readers see the old
// value or the new one, but leaves the version alone: no slot moves, so
// no other cursor has anything to re-seek for.
func (c *Cursor) Update(value []byte) bool {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	if !c.onRec || c.t.ver.Load() != c.ver {
		return false
	}
	p := nodePage{c.fr.Data}
	old := p.value(c.slot - 1)
	if len(value) > len(old) {
		return false
	}
	if !c.wrote {
		// Under the cache's lock and now, not at Unpin: FlushFile and
		// CloseFile must see the page dirty while the cursor still holds it.
		c.t.bc.markDirty(c.fr)
		c.wrote = true
	}
	off := p.slotOff(c.slot - 1)
	binary.LittleEndian.PutUint16(p.data[off+2:], uint16(len(value)))
	copy(old, value)
	return true
}

// unpin releases the cursor's leaf, dirty if Update wrote into it (a
// FlushFile in between may have cleared the mark markDirty set).
func (c *Cursor) unpin() {
	if c.fr != nil {
		c.t.bc.Unpin(c.fr, c.wrote)
		c.fr, c.wrote, c.onRec = nil, false, false
	}
}

// reseekLocked repositions the cursor after the tree mutated under it:
// unpin whatever leaf it held and descend again to the first key
// strictly greater than the last key returned (or to the original start
// if nothing was returned yet). Records inserted behind the scan point
// are skipped by construction; records ahead of it are picked up.
func (c *Cursor) reseekLocked() error {
	c.unpin()
	start := c.start
	if c.lastKey != nil {
		start = c.lastKey
	}
	fr, slot, err := c.t.seekLocked(start)
	if err != nil {
		return err
	}
	c.fr, c.slot = fr, slot
	if c.lastKey != nil {
		// The seek lands at the first key >= lastKey; step past an exact
		// match so no record is returned twice.
		p := nodePage{c.fr.Data}
		if c.slot < p.count() && bytes.Equal(p.key(c.slot), c.lastKey) {
			c.slot++
		}
	}
	return nil
}

// Err returns any I/O error encountered during iteration.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's pinned page.
func (c *Cursor) Close() { c.unpin() }

// BulkLoader builds a B-tree bottom-up from a strictly ascending key
// stream, packing leaves to the configured fill factor. It is used to
// (re)build the Vid live-vertex index each superstep in the left outer
// join plan, and to reload checkpoints.
type BulkLoader struct {
	t        *BTree
	fill     float64
	cur      *PageFrame
	curPage  nodePage
	lastKey  []byte
	children []loaderEntry // (firstKey, page) of completed leaves
	count    int64
}

type loaderEntry struct {
	key []byte
	pn  PageNum
}

// NewBulkLoader starts a bulk load into the (empty) tree. fill in (0,1].
func (t *BTree) NewBulkLoader(fill float64) (*BulkLoader, error) {
	if fill <= 0 || fill > 1 {
		fill = 1.0
	}
	return &BulkLoader{t: t, fill: fill}, nil
}

// Add appends a record; keys must arrive in strictly ascending order.
func (l *BulkLoader) Add(key, value []byte) error {
	if l.lastKey != nil && bytes.Compare(key, l.lastKey) <= 0 {
		return fmt.Errorf("btree bulkload: keys out of order: %x after %x", key, l.lastKey)
	}
	rec := 4 + len(key) + len(value)
	if rec > l.t.bc.PageSize-pageHeaderSize-2 {
		return ErrKeyTooLarge
	}
	if l.cur == nil {
		fr, err := l.t.bc.NewPage(l.t.fid)
		if err != nil {
			return err
		}
		l.cur = fr
		l.curPage = initNodePage(fr.Data, 0)
		l.children = append(l.children, loaderEntry{append([]byte(nil), key...), fr.PageNum()})
	}
	limit := int(float64(l.t.bc.PageSize-pageHeaderSize) * l.fill)
	if l.curPage.freeSpace() < rec+2 || (l.curPage.count() > 0 && l.curPage.freeOff()+rec > limit) {
		// Start a new leaf, chaining it.
		fr, err := l.t.bc.NewPage(l.t.fid)
		if err != nil {
			return err
		}
		np := initNodePage(fr.Data, 0)
		l.curPage.setNext(fr.PageNum())
		l.t.bc.Unpin(l.cur, true)
		l.cur, l.curPage = fr, np
		l.children = append(l.children, loaderEntry{append([]byte(nil), key...), fr.PageNum()})
	}
	l.curPage.leafInsertAt(l.curPage.count(), key, value)
	l.lastKey = append(l.lastKey[:0], key...)
	l.count++
	return nil
}

// Finish builds the interior levels and installs the new root. The tree
// must have been empty (fresh from CreateBTree) when loading began.
func (l *BulkLoader) Finish() error {
	if l.cur != nil {
		l.t.bc.Unpin(l.cur, true)
		l.cur = nil
	}
	if len(l.children) == 0 {
		return nil // empty load: keep the pre-created empty root leaf
	}
	level := 1
	entries := l.children
	for len(entries) > 1 {
		var parents []loaderEntry
		var fr *PageFrame
		var p nodePage
		for i, e := range entries {
			if fr == nil {
				nf, err := l.t.bc.NewPage(l.t.fid)
				if err != nil {
					return err
				}
				fr, p = nf, initNodePage(nf.Data, level)
				p.setLeftmost(e.pn)
				parents = append(parents, loaderEntry{e.key, nf.PageNum()})
				continue
			}
			rec := 4 + len(e.key) + 4
			if p.freeSpace() < rec+2 {
				l.t.bc.Unpin(fr, true)
				nf, err := l.t.bc.NewPage(l.t.fid)
				if err != nil {
					return err
				}
				fr, p = nf, initNodePage(nf.Data, level)
				p.setLeftmost(e.pn)
				parents = append(parents, loaderEntry{e.key, nf.PageNum()})
				continue
			}
			p.interiorInsertAt(p.count(), e.key, e.pn)
			_ = i
		}
		if fr != nil {
			l.t.bc.Unpin(fr, true)
		}
		entries = parents
		level++
	}
	// Root install is the one bulk-load step visible to concurrent
	// readers; publish it under the write lock like any other mutation.
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	l.t.ver.Add(1)
	return l.t.setRoot(entries[0].pn)
}

// Count returns the number of records loaded.
func (l *BulkLoader) Count() int64 { return l.count }
