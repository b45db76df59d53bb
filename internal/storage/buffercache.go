// Package storage implements the disk-resident access methods used by
// Pregelix to store the Vertex relation and operator intermediates: a
// buffer cache with LRU replacement, a B+tree, an LSM B-tree, and
// sequential run files.
//
// These mirror the Hyracks storage library the paper leverages
// (Section 4 "Access methods" and Section 5.4 "Memory Management"): the
// buffer cache caches partition pages and gracefully spills to disk when
// its metered budget is exhausted, which is what lets the physical plans
// above it run out-of-core workloads transparently.
package storage

import (
	"fmt"
	"os"
	"sync"

	"pregelix/internal/memory"
)

// DefaultPageSize is the page size used by indexes unless configured
// otherwise.
const DefaultPageSize = 8192

// FileID identifies a file registered with a BufferCache.
type FileID int32

// PageNum is a zero-based page index within a file.
type PageNum int32

type pageKey struct {
	fid FileID
	pn  PageNum
}

// PageFrame is an in-memory copy of one disk page, pinned by at most a few
// short-lived operations at a time.
type PageFrame struct {
	Data    []byte
	fid     FileID
	pn      PageNum
	pins    int
	dirty   bool
	metered bool
	// prev and next link the frame into the cache's LRU ring while it is
	// unpinned (both nil otherwise): the links live in the frame, so
	// pinning and unpinning a cached page allocates nothing.
	prev, next *PageFrame
}

// PageNum returns the page number this frame caches.
func (p *PageFrame) PageNum() PageNum { return p.pn }

type fileState struct {
	f        *os.File
	path     string
	numPages PageNum
}

// BufferCache mediates all page I/O for index files. It holds at most the
// number of frames its memory budget allows, evicting the least recently
// used unpinned frame (writing it back if dirty) to make room. When every
// frame is pinned it temporarily exceeds the budget rather than deadlock,
// counting the overflow.
type BufferCache struct {
	PageSize int

	mu       sync.Mutex
	budget   *memory.Budget
	frames   map[pageKey]*PageFrame
	lru      PageFrame // ring sentinel: next = most recent, prev = least; unpinned frames only
	files    map[FileID]*fileState
	nextFile FileID

	// Stats.
	Hits, Misses, Evictions, Writebacks, Overflows int64
}

// NewBufferCache creates a cache whose total frame memory is metered
// against budget (nil or unlimited budget means no cap).
func NewBufferCache(pageSize int, budget *memory.Budget) *BufferCache {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if budget == nil {
		budget = memory.NewBudget("buffercache", 0)
	}
	bc := &BufferCache{
		PageSize: pageSize,
		budget:   budget,
		frames:   make(map[pageKey]*PageFrame),
		files:    make(map[FileID]*fileState),
	}
	bc.lru.prev, bc.lru.next = &bc.lru, &bc.lru
	return bc
}

// OpenFile registers the file at path, creating it if needed, and returns
// its handle.
func (bc *BufferCache) OpenFile(path string) (FileID, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return 0, fmt.Errorf("buffercache: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	bc.mu.Lock()
	defer bc.mu.Unlock()
	bc.nextFile++
	fid := bc.nextFile
	bc.files[fid] = &fileState{
		f:        f,
		path:     path,
		numPages: PageNum(st.Size() / int64(bc.PageSize)),
	}
	return fid, nil
}

// NumPages returns the current page count of the file.
func (bc *BufferCache) NumPages(fid FileID) PageNum {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if fs, ok := bc.files[fid]; ok {
		return fs.numPages
	}
	return 0
}

// Pin fetches the page into memory and pins it. The caller must Unpin it.
func (bc *BufferCache) Pin(fid FileID, pn PageNum) (*PageFrame, error) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	key := pageKey{fid, pn}
	if fr, ok := bc.frames[key]; ok {
		bc.Hits++
		bc.pinLocked(fr)
		return fr, nil
	}
	bc.Misses++
	fs, ok := bc.files[fid]
	if !ok {
		return nil, fmt.Errorf("buffercache: pin on closed file %d", fid)
	}
	if pn >= fs.numPages {
		return nil, fmt.Errorf("buffercache: page %d beyond EOF (%d pages) in %s", pn, fs.numPages, fs.path)
	}
	fr := bc.allocFrameLocked(fid, pn, false) // the read fills the page
	if _, err := fs.f.ReadAt(fr.Data, int64(pn)*int64(bc.PageSize)); err != nil {
		bc.dropFrameLocked(fr)
		return nil, fmt.Errorf("buffercache: read %s page %d: %w", fs.path, pn, err)
	}
	return fr, nil
}

// NewPage appends a fresh zeroed page to the file and returns it pinned.
func (bc *BufferCache) NewPage(fid FileID) (*PageFrame, error) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	fs, ok := bc.files[fid]
	if !ok {
		return nil, fmt.Errorf("buffercache: new page on closed file %d", fid)
	}
	pn := fs.numPages
	fs.numPages++
	fr := bc.allocFrameLocked(fid, pn, true)
	fr.dirty = true
	return fr, nil
}

// markDirty records that a pinned frame's page was modified now, not at
// Unpin, so that FlushFile and CloseFile write it back meanwhile.
func (bc *BufferCache) markDirty(fr *PageFrame) {
	bc.mu.Lock()
	fr.dirty = true
	bc.mu.Unlock()
}

// Unpin releases one pin; dirty marks the frame as modified so eviction
// writes it back.
func (bc *BufferCache) Unpin(fr *PageFrame, dirty bool) {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if dirty {
		fr.dirty = true
	}
	fr.pins--
	if fr.pins < 0 {
		panic("buffercache: unpin without pin")
	}
	if fr.pins == 0 {
		fr.prev, fr.next = &bc.lru, bc.lru.next
		fr.prev.next, fr.next.prev = fr, fr
	}
}

// FlushFile writes back all dirty pages of the file.
func (bc *BufferCache) FlushFile(fid FileID) error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for key, fr := range bc.frames {
		if key.fid == fid && fr.dirty {
			if err := bc.writebackLocked(fr); err != nil {
				return err
			}
		}
	}
	return nil
}

// CloseFile flushes and forgets the file's pages and closes the handle.
func (bc *BufferCache) CloseFile(fid FileID) error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	fs, ok := bc.files[fid]
	if !ok {
		return nil
	}
	for key, fr := range bc.frames {
		if key.fid != fid {
			continue
		}
		if fr.dirty {
			if err := bc.writebackLocked(fr); err != nil {
				return err
			}
		}
		bc.dropFrameLocked(fr)
	}
	delete(bc.files, fid)
	return fs.f.Close()
}

// DeleteFile closes the file and removes it from disk, discarding dirty
// pages.
func (bc *BufferCache) DeleteFile(fid FileID) error {
	bc.mu.Lock()
	fs, ok := bc.files[fid]
	if !ok {
		bc.mu.Unlock()
		return nil
	}
	for key, fr := range bc.frames {
		if key.fid == fid {
			bc.dropFrameLocked(fr)
		}
	}
	delete(bc.files, fid)
	bc.mu.Unlock()
	fs.f.Close()
	return os.Remove(fs.path)
}

// PinnedFrames returns the number of frames currently pinned across all
// files. Tests assert it returns to zero after every operation — the
// buffer-cache analogue of the frame-lease checks in internal/tuple —
// so a cursor error path that strands a pin is caught immediately.
func (bc *BufferCache) PinnedFrames() int {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	n := 0
	for _, fr := range bc.frames {
		if fr.pins > 0 {
			n++
		}
	}
	return n
}

// Path returns the on-disk path of the file.
func (bc *BufferCache) Path(fid FileID) string {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if fs, ok := bc.files[fid]; ok {
		return fs.path
	}
	return ""
}

func (bc *BufferCache) pinLocked(fr *PageFrame) {
	bc.unlinkLocked(fr)
	fr.pins++
}

// unlinkLocked takes fr out of the LRU ring if it is in it.
func (bc *BufferCache) unlinkLocked(fr *PageFrame) {
	if fr.next != nil {
		fr.prev.next, fr.next.prev = fr.next, fr.prev
		fr.prev, fr.next = nil, nil
	}
}

// allocFrameLocked finds memory for a new frame, evicting LRU unpinned
// frames as needed, and registers it pinned. The frame takes over the
// page buffer of the last frame evicted for it, if any, cleared if the
// caller needs a zeroed page.
func (bc *BufferCache) allocFrameLocked(fid FileID, pn PageNum, zeroed bool) *PageFrame {
	metered := true
	var data []byte
	for !bc.budget.TryAllocate(int64(bc.PageSize)) {
		victim := bc.evictOneLocked()
		if victim == nil {
			// Everything is pinned: exceed the budget rather than
			// deadlock; this models a transient working-set spike.
			bc.Overflows++
			metered = false
			break
		}
		data = victim.Data
	}
	if data == nil {
		data = make([]byte, bc.PageSize)
	} else if zeroed {
		clear(data)
	}
	fr := &PageFrame{
		Data:    data,
		fid:     fid,
		pn:      pn,
		pins:    1,
		metered: metered,
	}
	bc.frames[pageKey{fid, pn}] = fr
	return fr
}

// evictOneLocked drops the least recently used unpinned frame, written
// back if dirty, and returns it; nil if there is none to drop.
func (bc *BufferCache) evictOneLocked() *PageFrame {
	fr := bc.lru.prev
	if fr == &bc.lru {
		return nil
	}
	if fr.dirty {
		if err := bc.writebackLocked(fr); err != nil {
			// Leave the frame in place; caller will overflow.
			return nil
		}
	}
	bc.dropFrameLocked(fr)
	bc.Evictions++
	return fr
}

func (bc *BufferCache) writebackLocked(fr *PageFrame) error {
	fs, ok := bc.files[fr.fid]
	if !ok {
		return fmt.Errorf("buffercache: writeback to closed file %d", fr.fid)
	}
	if _, err := fs.f.WriteAt(fr.Data, int64(fr.pn)*int64(bc.PageSize)); err != nil {
		return fmt.Errorf("buffercache: writeback %s page %d: %w", fs.path, fr.pn, err)
	}
	bc.Writebacks++
	fr.dirty = false
	return nil
}

func (bc *BufferCache) dropFrameLocked(fr *PageFrame) {
	bc.unlinkLocked(fr)
	delete(bc.frames, pageKey{fr.fid, fr.pn})
	if fr.metered {
		bc.budget.Release(int64(bc.PageSize))
	}
}
