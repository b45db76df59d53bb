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
func TestCursorUpdatePersists(t *testing.T) {
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
		if _, _, ok := c.NextView(); !ok {
			t.Fatalf("scan ended at %d: %v", i, c.Err())
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
func TestCursorUpdateVsReaders(t *testing.T) {
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
			if _, _, ok := c.NextView(); !ok {
				t.Fatalf("writer's scan ended at %d", i)
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
