package storage

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"pregelix/internal/tuple"
)

// loadTree bulk-loads n records i -> val(i) into a fresh tree on bc.
func loadTree(t *testing.T, bc *BufferCache, path string, n int, val func(i int) []byte) *BTree {
	t.Helper()
	bt, err := CreateBTree(bc, path)
	if err != nil {
		t.Fatal(err)
	}
	l, err := bt.NewBulkLoader(1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := l.Add(tuple.EncodeUint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Finish(); err != nil {
		t.Fatal(err)
	}
	return bt
}

func scanAll(t *testing.T, bt *BTree) (keys []uint64, vals [][]byte) {
	t.Helper()
	c, err := bt.ScanFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for {
		k, v, ok := c.Next()
		if !ok {
			break
		}
		keys = append(keys, tuple.DecodeUint64(k))
		vals = append(vals, v)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return keys, vals
}

// TestCursorUpdate: the cursor overwrites the record it returned last
// when the new value is no longer than the old one and the tree is the
// one it read, and otherwise declines and leaves the tree alone.
func TestCursorUpdate(t *testing.T) {
	const n = 200 // several 1 KiB leaves of 16-byte values
	old := func(i int) []byte { return []byte(fmt.Sprintf("old-value-%06d", i)) }
	// Slots 0 and last of the first leaf, found by scanning for the page change.
	probe := loadTree(t, newTestCache(t, 0), filepath.Join(t.TempDir(), "probe"), n, old)
	pc, err := probe.ScanFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	pc.NextView()
	firstLeaf, lastOfLeaf := pc.fr.PageNum(), 0
	for pc.fr != nil && pc.fr.PageNum() == firstLeaf {
		lastOfLeaf++
		pc.NextView()
	}
	lastOfLeaf-- // the record read last while still on the first leaf
	pc.Close()
	probe.Close()
	if lastOfLeaf <= 0 || lastOfLeaf >= n-1 {
		t.Fatalf("first leaf ends at record %d of %d: the fixture does not span leaves", lastOfLeaf, n)
	}

	cases := []struct {
		name string
		at   int // records read before Update (0: before the first, n+1: after the last)
		val  string
		want bool
	}{
		{"same size", 50, "NEW-value-000049", true},
		{"shorter", 50, "short", true},
		{"empty", 50, "", true},
		{"longer", 50, "a value longer than the old one", false},
		{"before the first Next", 0, "NEW-value-xxxxxx", false},
		{"after the last Next", n + 1, "NEW-value-xxxxxx", false},
		{"first slot of a leaf", 1, "NEW-value-000000", true},
		{"last slot of a leaf", lastOfLeaf + 1, "NEW-value-lastsl", true},
		{"first slot of the second leaf", lastOfLeaf + 2, "NEW-value-nextlf", true},
		{"last record", n, "NEW-value-last00", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bc := newTestCache(t, 0)
			bt := loadTree(t, bc, filepath.Join(t.TempDir(), "t"), n, old)
			defer bt.Close()
			c, err := bt.ScanFrom(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.at; i++ {
				c.NextView()
			}
			if got := c.Update([]byte(tc.val)); got != tc.want {
				t.Fatalf("Update = %v, want %v", got, tc.want)
			}
			// The scan goes on from where it was, whatever Update said.
			rest := 0
			for {
				if _, _, ok := c.NextView(); !ok {
					break
				}
				rest++
			}
			if want := max(n-tc.at, 0); rest != want {
				t.Fatalf("%d records after the update, want %d", rest, want)
			}
			c.Close()
			if got := bc.PinnedFrames(); got != 0 {
				t.Fatalf("%d frames pinned", got)
			}
			keys, vals := scanAll(t, bt)
			if len(keys) != n {
				t.Fatalf("%d records, want %d", len(keys), n)
			}
			for i := range keys {
				want := old(i)
				if tc.want && i == tc.at-1 {
					want = []byte(tc.val)
				}
				if keys[i] != uint64(i) || !bytes.Equal(vals[i], want) {
					t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, keys[i], vals[i], i, want)
				}
				if got, err := bt.Search(tuple.EncodeUint64(uint64(i))); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Search(%d) = %q, %v, want %q", i, got, err, want)
				}
			}
		})
	}
}

// TestCursorUpdateAfterInsert: an Insert moves the tree's version, so the
// cursor declines (its slot may have moved), re-seeks at its next read,
// and still returns every record once; after that read it updates again.
func TestCursorUpdateAfterInsert(t *testing.T) {
	const n = 300
	bc := newTestCache(t, 0)
	bt := loadTree(t, bc, filepath.Join(t.TempDir(), "t"), n, func(i int) []byte { return []byte("0123456789abcdef") })
	defer bt.Close()
	c, err := bt.ScanFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var seen []uint64
	for i := 0; i < 100; i++ {
		k, _, _ := c.NextView()
		seen = append(seen, tuple.DecodeUint64(k))
	}
	// Records are added ahead of the cursor, then the one under it grows:
	// its leaf was loaded full, so it splits and the record moves.
	for i := 0; i < 40; i++ {
		if err := bt.Insert(tuple.EncodeUint64(uint64(n+i)), bytes.Repeat([]byte("x"), 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Insert(tuple.EncodeUint64(99), bytes.Repeat([]byte("y"), 200)); err != nil {
		t.Fatal(err)
	}
	if c.Update([]byte("ZZZZZZZZZZZZZZZZ")) {
		t.Fatal("Update went through on a tree that changed since the cursor's read")
	}
	if v, err := bt.Search(tuple.EncodeUint64(99)); err != nil || !bytes.Equal(v, bytes.Repeat([]byte("y"), 200)) {
		t.Fatalf("record 99 = %q, %v after a declined update", v, err)
	}
	k, _, ok := c.NextView()
	if !ok || tuple.DecodeUint64(k) != 100 {
		t.Fatalf("the re-seek landed on %x, %v, want 100", k, ok)
	}
	seen = append(seen, 100)
	if !c.Update([]byte("updated-after-rs")) {
		t.Fatal("Update declined after the cursor caught up with the tree")
	}
	for {
		k, _, ok := c.NextView()
		if !ok {
			break
		}
		seen = append(seen, tuple.DecodeUint64(k))
	}
	if len(seen) != n+40 {
		t.Fatalf("scan returned %d records, want %d", len(seen), n+40)
	}
	for i, k := range seen {
		if k != uint64(i) {
			t.Fatalf("record %d of the scan is %d: not complete and duplicate-free", i, k)
		}
	}
	if v, _ := bt.Search(tuple.EncodeUint64(100)); string(v) != "updated-after-rs" {
		t.Fatalf("record 100 = %q", v)
	}
}

// TestCursorUpdatePersists: on a cache far smaller than the tree, every
// page written through a cursor reaches the file — by eviction while the
// scan runs, by FlushFile for the leaf still pinned, by CloseFile for
// the rest.
func TestCursorUpdatePersists(t *testing.T) { cursorUpdatePersists(t, nextRecord) }

// TestCursorSeekUpdatePersists is TestCursorUpdatePersists with the
// records reached by Seek instead of NextView.
func TestCursorSeekUpdatePersists(t *testing.T) { cursorUpdatePersists(t, seekRecord) }

// nextRecord and seekRecord put the cursor on record i of a tree whose
// keys are 0..n-1, read in order: by scanning and by probing.
func nextRecord(c *Cursor, i int) bool {
	k, _, ok := c.NextView()
	return ok && tuple.DecodeUint64(k) == uint64(i)
}

func seekRecord(c *Cursor, i int) bool {
	_, ok := c.Seek(tuple.EncodeUint64(uint64(i)))
	return ok
}

func cursorUpdatePersists(t *testing.T, reach func(c *Cursor, i int) bool) {
	const n, pages = 11000, 500 // 1 KiB pages of 21 records of 8 + 32 bytes
	bc := newTestCache(t, 16)
	path := filepath.Join(t.TempDir(), "t")
	bt := loadTree(t, bc, path, n, func(i int) []byte { return bytes.Repeat([]byte{'o'}, 32) })
	if got := bc.NumPages(bt.fid); got < pages {
		t.Fatalf("the tree has %d pages, want at least %d", got, pages)
	}
	newVal := func(i int) []byte { return []byte(fmt.Sprintf("new-%028d", i)) }
	writebacks := bc.Writebacks
	c, err := bt.ScanFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !reach(c, i) {
			t.Fatalf("record %d not reached: %v", i, c.Err())
		}
		if !c.Update(newVal(i)) {
			t.Fatalf("same-size update of record %d declined", i)
		}
		if i == n/2 {
			// The leaf under the cursor is dirty and pinned: a flush now
			// must write it, and what is written into it afterwards must
			// still reach the file.
			if err := bc.FlushFile(bt.fid); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Close()
	if bc.Writebacks == writebacks {
		t.Fatal("no page was written back while 500 pages were updated through 16 frames")
	}
	if got := bc.PinnedFrames(); got != 0 {
		t.Fatalf("%d frames pinned", got)
	}
	check := func(bt *BTree, when string) {
		t.Helper()
		keys, vals := scanAll(t, bt)
		if len(keys) != n {
			t.Fatalf("%s: %d records, want %d", when, len(keys), n)
		}
		for i := range keys {
			if keys[i] != uint64(i) || !bytes.Equal(vals[i], newVal(i)) {
				t.Fatalf("%s: record %d = (%d, %q)", when, i, keys[i], vals[i])
			}
		}
	}
	check(bt, "second scan")
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenBTree(newTestCache(t, 16), path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check(reopened, "re-opened file")
}

// TestCursorUpdateVsReaders (run with -race): while one cursor rewrites
// every value, Search and scans through Next see, for every record, the
// old value or the new one and never a mix of the two.
func TestCursorUpdateVsReaders(t *testing.T) { cursorUpdateVsReaders(t, nextRecord) }

// TestCursorSeekVsReaders is TestCursorUpdateVsReaders with the writer
// reaching each record by Seek.
func TestCursorSeekVsReaders(t *testing.T) { cursorUpdateVsReaders(t, seekRecord) }

func cursorUpdateVsReaders(t *testing.T, reach func(c *Cursor, i int) bool) {
	const n, rounds = 400, 20
	bc := newTestCache(t, 0)
	bt := loadTree(t, bc, filepath.Join(t.TempDir(), "t"), n, func(i int) []byte { return bytes.Repeat([]byte{0}, 64) })
	defer bt.Close()
	whole := func(v []byte) bool {
		return len(v) == 64 && bytes.Count(v, v[:1]) == 64
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(2)
		go func() { // point reads
			defer wg.Done()
			for i := 0; ; i = (i + 7) % n {
				select {
				case <-stop:
					return
				default:
				}
				if v, err := bt.Search(tuple.EncodeUint64(uint64(i))); err != nil || !whole(v) {
					t.Errorf("Search(%d) = %x, %v: a torn value", i, v, err)
					return
				}
			}
		}()
		go func() { // scans
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := bt.ScanFrom(nil)
				if err != nil {
					t.Error(err)
					return
				}
				seen := 0
				for {
					_, v, ok := c.Next()
					if !ok {
						break
					}
					seen++
					if !whole(v) {
						t.Errorf("scan read %x: a torn value", v)
					}
				}
				c.Close()
				if seen != n {
					t.Errorf("scan saw %d of %d records", seen, n)
					return
				}
			}
		}()
	}
	for round := 1; round <= rounds; round++ {
		c, err := bt.ScanFrom(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if !reach(c, i) {
				t.Fatalf("writer's cursor did not reach record %d", i)
			}
			if !c.Update(bytes.Repeat([]byte{byte(round)}, 64)) {
				t.Fatalf("update %d of round %d declined", i, round)
			}
		}
		c.Close()
	}
	close(stop)
	wg.Wait()
	if got := bc.PinnedFrames(); got != 0 {
		t.Fatalf("%d frames pinned", got)
	}
}

// pins counts the pages bc has pinned so far, cached or read.
func pins(bc *BufferCache) int64 { return bc.Hits + bc.Misses }

// TestCursorSeek: a seek finds its key on the leaf the cursor holds
// without pinning a page, descends once for a key on another leaf and
// for any key after the tree changed, and arms Update only for a key it
// found; the cursor then stands where the key is.
func TestCursorSeek(t *testing.T) {
	const n = 200 // even keys 0..398: several 1 KiB leaves of 16-byte values
	val := func(i uint64) []byte { return []byte(fmt.Sprintf("old-value-%06d", i)) }
	bc := newTestCache(t, 0)
	bt, err := CreateBTree(bc, filepath.Join(t.TempDir(), "t"))
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	l, _ := bt.NewBulkLoader(1.0)
	for i := uint64(0); i < n; i++ {
		if err := l.Add(tuple.EncodeUint64(2*i), val(2*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Finish(); err != nil {
		t.Fatal(err)
	}
	c, err := bt.ScanFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seek := func(key uint64, wantFound bool, wantPins bool) {
		t.Helper()
		before := pins(bc)
		v, ok := c.Seek(tuple.EncodeUint64(key))
		if ok != wantFound || (ok && !bytes.Equal(v, val(key))) {
			t.Fatalf("Seek(%d) = %q, %v, want found=%v", key, v, ok, wantFound)
		}
		if got := pins(bc) - before; (got > 0) != wantPins {
			t.Fatalf("Seek(%d) pinned %d pages, want a descent: %v", key, got, wantPins)
		}
	}

	// ScanFrom(nil) holds the first leaf: seeks on it pin nothing, and
	// an absent key between two of its keys is found absent there too.
	seek(0, true, false)
	seek(2, true, false)
	seek(5, false, false)
	if c.Update([]byte("x")) {
		t.Fatal("Update went through after a seek of an absent key")
	}
	seek(6, true, false)
	if !c.Update([]byte("NEW-value-000006")) {
		t.Fatal("same-size update after a seek declined")
	}
	if v, err := bt.Search(tuple.EncodeUint64(6)); err != nil || string(v) != "NEW-value-000006" {
		t.Fatalf("record 6 = %q, %v", v, err)
	}
	// The cursor stands on 6: a scan goes on from 8.
	if k, _, ok := c.NextView(); !ok || tuple.DecodeUint64(k) != 8 {
		t.Fatalf("NextView after Seek(6) = %x, %v, want 8", k, ok)
	}

	// Across leaves: one descent, then the new leaf is the cheap one.
	lastOfFirst := uint64(0)
	for {
		k, _, ok := c.NextView()
		if !ok || c.slot == 1 { // the scan stepped onto the second leaf
			break
		}
		lastOfFirst = tuple.DecodeUint64(k)
	}
	seek(lastOfFirst+2, true, false) // the second leaf's first key
	seek(lastOfFirst, true, true)    // backwards works, at the price of a descent
	if !c.Update([]byte("NEW-value-leaf-1")) {
		t.Fatal("update after a backward seek declined")
	}
	seek(lastOfFirst+2, true, true)
	seek(lastOfFirst+4, true, false)

	// Past the end: absent, Update declines, the scan is over.
	seek(2*n+3, false, true)
	if c.Update([]byte("x")) {
		t.Fatal("Update went through after a seek past the end")
	}
	if _, _, ok := c.NextView(); ok {
		t.Fatal("NextView after a seek past the end returned a record")
	}

	// After the tree changed the cursor descends again, even to its leaf:
	// for an insert on another leaf, and for one that splits its own.
	seek(100, true, true)
	if err := bt.Insert(tuple.EncodeUint64(2*n+1), []byte("inserted")); err != nil {
		t.Fatal(err)
	}
	seek(102, true, true)
	if !c.Update([]byte("NEW-value-000102")) {
		t.Fatal("update after the re-descent declined")
	}
	seek(104, true, false)
	if err := bt.Insert(tuple.EncodeUint64(105), []byte("inserted")); err != nil {
		t.Fatal(err)
	}
	seek(106, true, true)
	seek(108, true, false)

	for _, k := range []uint64{6, lastOfFirst, 102} {
		v, err := bt.Search(tuple.EncodeUint64(k))
		if err != nil || bytes.Equal(v, val(k)) {
			t.Fatalf("record %d = %q, %v: the update was lost", k, v, err)
		}
	}
	c.Close()
	if got := bc.PinnedFrames(); got != 0 {
		t.Fatalf("%d frames pinned", got)
	}
}

// TestLSMCursorSeek: the LSM cursor's Seek is Search, returning a copy
// that later inserts do not change, and Update keeps declining.
func TestLSMCursorSeek(t *testing.T) {
	bc := newTestCache(t, 8)
	lsm, err := CreateLSMBTree(bc, t.TempDir(), LSMOptions{MemLimit: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Drop()
	for i := 0; i < 300; i++ { // several components and a memory one
		if err := lsm.Insert(tuple.EncodeUint64(uint64(2*i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c, err := AsLSMIndex(lsm).ScanFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 300; i++ {
		v, ok := c.Seek(tuple.EncodeUint64(uint64(2 * i)))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Seek(%d) = %q, %v", 2*i, v, ok)
		}
		if c.Update(v) {
			t.Fatal("the LSM cursor took an update")
		}
		if _, ok := c.Seek(tuple.EncodeUint64(uint64(2*i + 1))); ok {
			t.Fatalf("Seek(%d) found an absent key", 2*i+1)
		}
	}
	v, _ := c.Seek(tuple.EncodeUint64(0))
	if err := lsm.Insert(tuple.EncodeUint64(0), []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if string(v) != "v0" || c.Err() != nil {
		t.Fatalf("a sought value changed to %q under an insert (err %v)", v, c.Err())
	}
}

// TestCursorNextViewMatchesNext: the view read returns what Next returns,
// on both kinds of index, and Next's results stay what they were while
// the cursor moves on.
func TestCursorNextViewMatchesNext(t *testing.T) {
	const n = 700
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i*i)) }
	bc := newTestCache(t, 8)
	dir := t.TempDir()
	bt := loadTree(t, bc, filepath.Join(dir, "bt"), n, val)
	defer bt.Close()
	lsm, err := CreateLSMBTree(bc, dir, LSMOptions{MemLimit: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer lsm.Drop()
	for i := 0; i < n; i++ {
		if err := lsm.Insert(tuple.EncodeUint64(uint64(i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	for name, idx := range map[string]Index{"btree": AsIndex(bt), "lsm": AsLSMIndex(lsm)} {
		a, err := idx.ScanFrom(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := idx.ScanFrom(nil)
		if err != nil {
			t.Fatal(err)
		}
		var kept [][2][]byte
		for i := 0; ; i++ {
			k, v, ok := a.Next()
			vk, vv, vok := b.NextView()
			if ok != vok || !bytes.Equal(k, vk) || !bytes.Equal(v, vv) {
				t.Fatalf("%s record %d: Next = (%x, %q, %v), NextView = (%x, %q, %v)", name, i, k, v, ok, vk, vv, vok)
			}
			if !ok {
				break
			}
			kept = append(kept, [2][]byte{k, v})
		}
		if len(kept) != n {
			t.Fatalf("%s: %d records, want %d", name, len(kept), n)
		}
		for i, kv := range kept {
			if tuple.DecodeUint64(kv[0]) != uint64(i) || !bytes.Equal(kv[1], val(i)) {
				t.Fatalf("%s: what Next returned for record %d changed to (%x, %q)", name, i, kv[0], kv[1])
			}
		}
		if name == "lsm" {
			c, _ := idx.ScanFrom(nil)
			c.NextView()
			if c.Update(val(0)) {
				t.Fatal("the LSM cursor took an update")
			}
			c.Close()
		}
		a.Close()
		b.Close()
	}
	if got := bc.PinnedFrames(); got != 0 {
		t.Fatalf("%d frames pinned", got)
	}
}

// TestBufferCachePinAllocations: the LRU links are in the frame, so
// pinning and unpinning a cached page allocates nothing; and a page
// handed out by NewPage is zeroed even when its buffer is a recycled one.
func TestBufferCachePinAllocations(t *testing.T) {
	bc := newTestCache(t, 4)
	fid, err := bc.OpenFile(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer bc.CloseFile(fid)
	for i := 0; i < 12; i++ { // three times the cache: later pages recycle evicted buffers
		fr, err := bc.NewPage(fid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fr.Data, make([]byte, bc.PageSize)) {
			t.Fatalf("new page %d is not zeroed", i)
		}
		for j := range fr.Data {
			fr.Data[j] = byte(i + 1)
		}
		bc.Unpin(fr, true)
	}
	if bc.Evictions == 0 {
		t.Fatal("no eviction: the fixture does not recycle buffers")
	}
	for i := 0; i < 12; i++ { // every page reads back as written, through recycled buffers too
		fr, err := bc.Pin(fid, PageNum(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fr.Data, bytes.Repeat([]byte{byte(i + 1)}, bc.PageSize)) {
			t.Fatalf("page %d read back wrong", i)
		}
		bc.Unpin(fr, false)
	}
	allocs := testing.AllocsPerRun(100, func() {
		fr, err := bc.Pin(fid, 11) // cached: pinned last
		if err != nil {
			t.Fatal(err)
		}
		bc.Unpin(fr, false)
	})
	if allocs != 0 {
		t.Fatalf("Pin+Unpin of a cached page allocates %.1f times", allocs)
	}
}
