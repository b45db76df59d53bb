package storage

// Index is the access-method interface shared by the B-tree and the LSM
// B-tree, the two vertex storage options of Section 5.2. Plans are
// written against Index so the storage choice is a per-job hint.
type Index interface {
	// Search returns the value under key or ErrNotFound.
	Search(key []byte) ([]byte, error)
	// Insert upserts key=value.
	Insert(key, value []byte) error
	// Delete removes key (a no-op if absent).
	Delete(key []byte) error
	// ScanFrom iterates records with key >= start (nil = all) in order.
	ScanFrom(start []byte) (IndexCursor, error)
	// Close releases resources, flushing pending state.
	Close() error
	// Drop closes and deletes the on-disk files.
	Drop() error
}

// IndexCursor iterates index records in ascending key order.
type IndexCursor interface {
	// Next returns the next record; ok=false at the end.
	Next() (key, value []byte, ok bool)
	// NextView is Next for a caller done with the record before its next
	// call on the cursor: key and value may be views (Cursor.NextView).
	NextView() (key, value []byte, ok bool)
	// Update overwrites the record returned last where it lies, if the
	// index can do that now; declined, the caller Inserts after the scan.
	Update(value []byte) bool
	// Err reports any I/O error hit during iteration.
	Err() error
	// Close releases pinned resources.
	Close()
}

// btreeIndex adapts *BTree to Index.
type btreeIndex struct{ *BTree }

func (b btreeIndex) Delete(key []byte) error {
	_, err := b.BTree.Delete(key)
	return err
}

func (b btreeIndex) ScanFrom(start []byte) (IndexCursor, error) {
	return b.BTree.ScanFrom(start)
}

// AsIndex wraps a B-tree in the Index interface.
func AsIndex(t *BTree) Index { return btreeIndex{t} }

// lsmIndex adapts *LSMBTree to Index.
type lsmIndex struct{ *LSMBTree }

func (l lsmIndex) ScanFrom(start []byte) (IndexCursor, error) {
	return l.LSMBTree.ScanFrom(start)
}

// AsLSMIndex wraps an LSM B-tree in the Index interface.
func AsLSMIndex(t *LSMBTree) Index { return lsmIndex{t} }
