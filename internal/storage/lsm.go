package storage

import (
	"bytes"
	"fmt"
	"sort"
)

// LSMBTree is a log-structured merge tree of B-tree components: updates go
// to an in-memory component that is flushed to an on-disk B-tree when it
// exceeds its budget, turning random update I/O into sequential writes
// (Section 4 "Access methods"). Lookups consult the in-memory component
// and then disk components newest-first; deletions write tombstones.
//
// The paper recommends the LSM B-tree for workloads whose vertex data
// changes size drastically across supersteps or that perform frequent
// graph mutations (e.g. the Genomix path-merging algorithm).
type LSMBTree struct {
	bc            *BufferCache
	dir           string
	memLimit      int64
	maxComponents int

	mem      map[string][]byte // value includes the live/tombstone prefix
	memBytes int64
	seq      int
	comps    []*BTree // newest first

	// Stats.
	Flushes, Merges int64
}

const (
	recLive      = 0
	recTombstone = 1
)

// LSMOptions configures an LSM B-tree.
type LSMOptions struct {
	// MemLimit is the in-memory component byte budget (default 4 MiB).
	MemLimit int64
	// MaxComponents triggers a full merge when exceeded (default 4).
	MaxComponents int
}

// CreateLSMBTree creates an empty LSM tree whose component files live
// under dir (a per-partition directory).
func CreateLSMBTree(bc *BufferCache, dir string, opts LSMOptions) (*LSMBTree, error) {
	if opts.MemLimit <= 0 {
		opts.MemLimit = 4 << 20
	}
	if opts.MaxComponents <= 0 {
		opts.MaxComponents = 4
	}
	return &LSMBTree{
		bc:            bc,
		dir:           dir,
		memLimit:      opts.MemLimit,
		maxComponents: opts.MaxComponents,
		mem:           make(map[string][]byte),
	}, nil
}

// Insert upserts key=value.
func (l *LSMBTree) Insert(key, value []byte) error {
	rec := make([]byte, 1+len(value))
	rec[0] = recLive
	copy(rec[1:], value)
	l.put(key, rec)
	return l.maybeFlush()
}

// Delete writes a tombstone for key.
func (l *LSMBTree) Delete(key []byte) error {
	l.put(key, []byte{recTombstone})
	return l.maybeFlush()
}

func (l *LSMBTree) put(key, rec []byte) {
	k := string(key)
	if old, ok := l.mem[k]; ok {
		l.memBytes -= int64(len(old))
	} else {
		l.memBytes += int64(len(k))
	}
	l.mem[k] = rec
	l.memBytes += int64(len(rec))
}

// Search returns the value for key or ErrNotFound.
func (l *LSMBTree) Search(key []byte) ([]byte, error) {
	if rec, ok := l.mem[string(key)]; ok {
		return decodeLSMRecord(rec)
	}
	for _, c := range l.comps {
		rec, err := c.Search(key)
		if err == ErrNotFound {
			continue
		}
		if err != nil {
			return nil, err
		}
		return decodeLSMRecord(rec)
	}
	return nil, ErrNotFound
}

func decodeLSMRecord(rec []byte) ([]byte, error) {
	if len(rec) == 0 {
		return nil, fmt.Errorf("lsm: empty record")
	}
	if rec[0] == recTombstone {
		return nil, ErrNotFound
	}
	return append([]byte(nil), rec[1:]...), nil
}

func (l *LSMBTree) maybeFlush() error {
	if l.memBytes < l.memLimit {
		return nil
	}
	return l.Flush()
}

// Flush persists the in-memory component as a new disk component.
func (l *LSMBTree) Flush() error {
	if len(l.mem) == 0 {
		return nil
	}
	keys := make([]string, 0, len(l.mem))
	for k := range l.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	l.seq++
	path := fmt.Sprintf("%s/component-%06d.btree", l.dir, l.seq)
	t, err := CreateBTree(l.bc, path)
	if err != nil {
		return err
	}
	loader, err := t.NewBulkLoader(1.0)
	if err != nil {
		return err
	}
	for _, k := range keys {
		if err := loader.Add([]byte(k), l.mem[k]); err != nil {
			return err
		}
	}
	if err := loader.Finish(); err != nil {
		return err
	}
	l.comps = append([]*BTree{t}, l.comps...)
	l.mem = make(map[string][]byte)
	l.memBytes = 0
	l.Flushes++
	if len(l.comps) > l.maxComponents {
		return l.mergeAll()
	}
	return nil
}

// mergeAll compacts every disk component into one, dropping tombstones.
func (l *LSMBTree) mergeAll() error {
	l.seq++
	path := fmt.Sprintf("%s/component-%06d.btree", l.dir, l.seq)
	t, err := CreateBTree(l.bc, path)
	if err != nil {
		return err
	}
	loader, err := t.NewBulkLoader(1.0)
	if err != nil {
		return err
	}
	it, err := l.mergedIterator(true)
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		k, rec, ok := it.nextRaw()
		if !ok {
			break
		}
		if rec[0] == recTombstone {
			continue // merge of all components drops tombstones
		}
		if err := loader.Add(k, rec); err != nil {
			return err
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	if err := loader.Finish(); err != nil {
		return err
	}
	old := l.comps
	l.comps = []*BTree{t}
	for _, c := range old {
		if err := c.Drop(); err != nil {
			return err
		}
	}
	l.Merges++
	return nil
}

// LSMCursor iterates live records in ascending key order across all
// components, newest value winning.
type LSMCursor struct {
	sources []lsmSource
	err     error
}

type lsmSource struct {
	// memory snapshot
	keys []string
	mem  map[string][]byte
	idx  int
	// or a disk cursor
	cur *Cursor
	// lookahead
	k, v  []byte
	valid bool
}

func (s *lsmSource) advance() {
	s.valid = false
	if s.cur != nil {
		k, v, ok := s.cur.Next()
		if ok {
			s.k, s.v, s.valid = k, v, true
		}
		return
	}
	if s.idx < len(s.keys) {
		k := s.keys[s.idx]
		s.idx++
		s.k, s.v, s.valid = []byte(k), s.mem[k], true
	}
}

// ScanFrom returns a cursor positioned at the first key >= start.
func (l *LSMBTree) ScanFrom(start []byte) (*LSMCursor, error) {
	return l.scanFrom(start, false)
}

func (l *LSMBTree) mergedIterator(includeMem bool) (*LSMCursor, error) {
	return l.scanFrom(nil, !includeMem)
}

func (l *LSMBTree) scanFrom(start []byte, skipMem bool) (*LSMCursor, error) {
	c := &LSMCursor{}
	if !skipMem {
		keys := make([]string, 0, len(l.mem))
		for k := range l.mem {
			if start == nil || bytes.Compare([]byte(k), start) >= 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		s := lsmSource{keys: keys, mem: l.mem}
		s.advance()
		c.sources = append(c.sources, s)
	}
	for _, comp := range l.comps {
		cur, err := comp.ScanFrom(start)
		if err != nil {
			c.Close()
			return nil, err
		}
		s := lsmSource{cur: cur}
		s.advance()
		c.sources = append(c.sources, s)
	}
	return c, nil
}

// nextRaw returns the next key with its raw (prefix-tagged) record,
// resolving duplicate keys in favor of the newest source.
func (c *LSMCursor) nextRaw() ([]byte, []byte, bool) {
	var bestIdx = -1
	for i := range c.sources {
		s := &c.sources[i]
		if !s.valid {
			continue
		}
		if bestIdx == -1 || bytes.Compare(s.k, c.sources[bestIdx].k) < 0 {
			bestIdx = i
		}
	}
	if bestIdx == -1 {
		return nil, nil, false
	}
	k := c.sources[bestIdx].k
	v := c.sources[bestIdx].v
	// Advance every source holding this key; bestIdx is the newest since
	// sources are ordered newest-first and ties resolve to the lower
	// index.
	for i := range c.sources {
		s := &c.sources[i]
		for s.valid && bytes.Equal(s.k, k) {
			s.advance()
		}
		if s.cur != nil && s.cur.Err() != nil {
			c.err = s.cur.Err()
		}
	}
	return k, v, true
}

// Next returns the next live key/value pair.
func (c *LSMCursor) Next() (key, value []byte, ok bool) {
	for {
		k, rec, more := c.nextRaw()
		if !more {
			return nil, nil, false
		}
		if rec[0] == recTombstone {
			continue
		}
		return k, rec[1:], true
	}
}

// NextView is Next: what an LSM cursor returns is already a copy, or an
// in-memory record no Insert writes into.
func (c *LSMCursor) NextView() (key, value []byte, ok bool) { return c.Next() }

// Update always declines: a write under an LSM cursor may flush or merge
// the components the cursor reads.
func (c *LSMCursor) Update([]byte) bool { return false }

// Err returns any I/O error hit during iteration.
func (c *LSMCursor) Err() error { return c.err }

// Close releases all underlying cursors.
func (c *LSMCursor) Close() {
	for i := range c.sources {
		if c.sources[i].cur != nil {
			c.sources[i].cur.Close()
		}
	}
}

// Close flushes in-memory data and closes all components.
func (l *LSMBTree) Close() error {
	if err := l.Flush(); err != nil {
		return err
	}
	for _, c := range l.comps {
		if err := c.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Drop discards the tree and deletes all component files.
func (l *LSMBTree) Drop() error {
	for _, c := range l.comps {
		if err := c.Drop(); err != nil {
			return err
		}
	}
	l.comps = nil
	l.mem = make(map[string][]byte)
	l.memBytes = 0
	return nil
}

// Components returns the number of disk components (for tests/stats).
func (l *LSMBTree) Components() int { return len(l.comps) }
