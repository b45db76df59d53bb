package storage

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pregelix/internal/tuple"
)

func TestRunFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.run")
	rf, err := CreateRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		tp := tuple.Tuple{tuple.EncodeUint64(uint64(i)), []byte("payload"), nil}
		if err := rf.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if rf.Count() != n {
		t.Fatalf("count %d want %d", rf.Count(), n)
	}
	if err := rf.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	rr, err := OpenRunReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	for i := 0; i < n; i++ {
		tp, err := rr.Next()
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if tuple.DecodeUint64(tp[0]) != uint64(i) || string(tp[1]) != "payload" || len(tp[2]) != 0 {
			t.Fatalf("tuple %d corrupted: %v", i, tp)
		}
	}
	if _, err := rr.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestRunFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.run")
	rf, err := CreateRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rf.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty, got %d", len(got))
	}
}

// boundaryPayload is the value field of the frame-boundary tests' records.
var boundaryPayload = bytes.Repeat([]byte("p"), 24)

// recordsPerFrame is how many (8-byte key, boundaryPayload) records make
// a frame image of at most tuple.DefaultFrameSize bytes: the most a run
// may hold without ever needing its file.
func recordsPerFrame() int {
	fr := tuple.NewFrame()
	defer tuple.PutFrame(fr)
	app := tuple.NewFrameAppender(fr)
	n := 0
	for app.Append(tuple.EncodeUint64(uint64(n)), boundaryPayload) && fr.FrameImageSize() <= tuple.DefaultFrameSize {
		n++
	}
	return n
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestRunFileFrameBoundary: a run started with NewRunFile and one from
// CreateRunFile give the same records back in order, through Reader and
// through Image, on both sides of the one-frame boundary. They differ
// only in when the file appears: at the first frame flush for the first,
// at once for the second. Neither holds a pooled frame once its writer
// and its reader are closed, and Delete may be repeated.
func TestRunFileFrameBoundary(t *testing.T) {
	perFrame := recordsPerFrame()
	for _, n := range []int{0, 1, perFrame, perFrame + 1} {
		for _, lazy := range []bool{true, false} {
			t.Run(fmt.Sprintf("n=%d/lazy=%v", n, lazy), func(t *testing.T) {
				leases := tuple.LeasedFrames()
				path := filepath.Join(t.TempDir(), "r.run")
				var rf *RunFile
				if lazy {
					rf = NewRunFile(path)
				} else {
					var err error
					if rf, err = CreateRunFile(path); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < n; i++ {
					if err := rf.AppendFields(tuple.EncodeUint64(uint64(i)), boundaryPayload); err != nil {
						t.Fatal(err)
					}
				}
				if err := rf.CloseWrite(); err != nil {
					t.Fatal(err)
				}
				if got := tuple.LeasedFrames(); got != leases {
					t.Fatalf("%d frames leased by a closed run, %d before it", got, leases)
				}
				if rf.Count() != int64(n) || rf.PayloadBytes() != int64(n*(8+len(boundaryPayload))) {
					t.Fatalf("count %d payload %d for %d records", rf.Count(), rf.PayloadBytes(), n)
				}
				if want := !lazy || n > perFrame; exists(path) != want {
					t.Fatalf("file exists = %v, want %v", exists(path), want)
				}

				rr, err := rf.Reader()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					ref, err := rr.NextRef()
					if err != nil {
						t.Fatalf("record %d: %v", i, err)
					}
					if tuple.DecodeUint64(ref.Field(0)) != uint64(i) || !bytes.Equal(ref.Field(1), boundaryPayload) {
						t.Fatalf("record %d read back as %v", i, ref)
					}
				}
				if _, err := rr.NextRef(); err != io.EOF {
					t.Fatalf("after %d records: %v, want EOF", n, err)
				}
				rr.Close()
				if got := tuple.LeasedFrames(); got != leases {
					t.Fatalf("%d frames leased after the reader closed, %d before the run", got, leases)
				}

				// The image is the file's bytes, or what they would have been.
				img, err := rf.Image()
				if err != nil {
					t.Fatal(err)
				}
				image, err := io.ReadAll(img)
				img.Close()
				if err != nil {
					t.Fatal(err)
				}
				if exists(path) {
					onDisk, err := os.ReadFile(path)
					if err != nil || !bytes.Equal(image, onDisk) {
						t.Fatalf("image is %d bytes, file %d (%v)", len(image), len(onDisk), err)
					}
				}
				fr := tuple.NewFrame()
				defer tuple.PutFrame(fr)
				records := 0
				for r := bytes.NewReader(image); ; records += fr.Len() {
					if err := tuple.ReadFrameInto(r, fr); err == io.EOF {
						break
					} else if err != nil {
						t.Fatal(err)
					}
				}
				if records != n {
					t.Fatalf("image holds %d records, want %d", records, n)
				}

				for i := 0; i < 2; i++ {
					if err := rf.Delete(); err != nil {
						t.Fatalf("delete %d: %v", i+1, err)
					}
					if exists(path) {
						t.Fatalf("file still there after delete %d", i+1)
					}
				}
			})
		}
	}
}

// TestRunFileDeleteAfterFailedWrite: a run whose file cannot be created
// reports that from the write that needed it, and Delete then releases
// the frame it was built in.
func TestRunFileDeleteAfterFailedWrite(t *testing.T) {
	leases := tuple.LeasedFrames()
	path := filepath.Join(t.TempDir(), "no-such-dir", "r.run")
	if _, err := CreateRunFile(path); err == nil {
		t.Fatal("CreateRunFile in a missing directory succeeded")
	}
	rf := NewRunFile(path)
	var err error
	for i := 0; i <= recordsPerFrame() && err == nil; i++ {
		err = rf.AppendFields(tuple.EncodeUint64(uint64(i)), boundaryPayload)
	}
	if err == nil {
		// A recycled frame larger than the default took them all: then
		// it is the close that needs the file.
		err = rf.CloseWrite()
	}
	if err == nil {
		t.Fatal("a run past its first frame was written with no directory to create its file in")
	}
	for i := 0; i < 2; i++ {
		if err := rf.Delete(); err != nil {
			t.Fatalf("delete %d: %v", i+1, err)
		}
	}
	if got := tuple.LeasedFrames(); got != leases {
		t.Fatalf("%d frames leased after the delete, %d before the run", got, leases)
	}
}

// TestRunFileCuts: runs cut one after the other from one file read back,
// each through its own section of the file's one descriptor and in any
// order, as exactly what was appended to them; the file alone holds
// them, and the file's counts are theirs summed.
func TestRunFileCuts(t *testing.T) {
	leases := tuple.LeasedFrames()
	path := filepath.Join(t.TempDir(), "runs")
	rf := NewRunFile(path)
	perFrame := recordsPerFrame()
	sizes := []int{3, 0, 1, 3*perFrame + 5, perFrame}
	var runs []Run
	var starts []int // each run's first record
	first := 0
	for _, n := range sizes {
		starts = append(starts, first)
		for i := first; i < first+n; i++ {
			if err := rf.AppendFields(tuple.EncodeUint64(uint64(i)), boundaryPayload); err != nil {
				t.Fatal(err)
			}
		}
		run, err := rf.Cut()
		if err != nil {
			t.Fatal(err)
		}
		if run.Count() != int64(n) || run.PayloadBytes() != int64(n*(8+len(boundaryPayload))) {
			t.Fatalf("run of %d records: count %d, payload %d", n, run.Count(), run.PayloadBytes())
		}
		runs = append(runs, run)
		first += n
	}
	if got := tuple.LeasedFrames(); got != leases {
		t.Fatalf("%d frames leased by a file whose last run is cut, %d before it", got, leases)
	}
	if rf.Count() != int64(first) {
		t.Fatalf("file count %d, want %d", rf.Count(), first)
	}
	for j := len(runs) - 1; j >= 0; j-- {
		rr := rf.ReadRun(runs[j])
		for i := starts[j]; i < starts[j]+sizes[j]; i++ {
			ref, err := rr.NextRef()
			if err != nil || tuple.DecodeUint64(ref.Field(0)) != uint64(i) {
				t.Fatalf("run %d, record %d: %v %v", j, i, ref, err)
			}
		}
		if _, err := rr.NextRef(); err != io.EOF {
			t.Fatalf("run %d after %d records: %v, want EOF", j, sizes[j], err)
		}
		rr.Close()
	}
	if !exists(path) {
		t.Fatal("no file holds the runs")
	}
	if err := rf.Delete(); err != nil || exists(path) {
		t.Fatalf("delete: %v, file exists %v", err, exists(path))
	}
	if got := tuple.LeasedFrames(); got != leases {
		t.Fatalf("%d frames leased after the delete, %d before the file", got, leases)
	}
}

// TestRunFileDeleteWritesNothing:deleting a run that was never closed
// drops what it holds. It holds one record larger than a frame, whose
// image closing would write to the run's file, and Delete neither creates
// that file nor writes it to remove it again: in a directory that does
// not exist nothing appears, and in one that does the directory is not
// touched (a file created and unlinked would move its modification time).
func TestRunFileDeleteWritesNothing(t *testing.T) {
	leases := tuple.LeasedFrames()
	big := bytes.Repeat([]byte("v"), tuple.DefaultFrameSize+1)
	missing, dir := filepath.Join(t.TempDir(), "gone"), t.TempDir()
	past := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(dir, past, past); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(missing, "r.run"), filepath.Join(dir, "r.run")} {
		rf := NewRunFile(path)
		if err := rf.AppendFields(tuple.EncodeUint64(1), big); err != nil {
			t.Fatal(err)
		}
		if err := rf.Delete(); err != nil {
			t.Fatalf("%s: delete: %v", path, err)
		}
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("the missing directory: %v after the delete", err)
	}
	if st, err := os.Stat(dir); err != nil || !st.ModTime().Equal(past) {
		t.Errorf("the directory was written to by the delete: %v", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("%d files left in the directory", len(left))
	}
	if got := tuple.LeasedFrames(); got != leases {
		t.Fatalf("%d frames leased after the deletes, %d before the runs", got, leases)
	}
}

func TestBufferCacheEvictionWriteback(t *testing.T) {
	dir := t.TempDir()
	bc := newTestCache(t, 4)
	fid, err := bc.OpenFile(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	// Create 16 pages, each stamped with its page number.
	for i := 0; i < 16; i++ {
		fr, err := bc.NewPage(fid)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(i)
		bc.Unpin(fr, true)
	}
	if bc.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	// All pages must read back correctly (evicted ones from disk).
	for i := 0; i < 16; i++ {
		fr, err := bc.Pin(fid, PageNum(i))
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data[0] != byte(i) {
			t.Fatalf("page %d: stamp %d", i, fr.Data[0])
		}
		bc.Unpin(fr, false)
	}
	if err := bc.CloseFile(fid); err != nil {
		t.Fatal(err)
	}
}

func TestBufferCachePinBeyondEOF(t *testing.T) {
	bc := newTestCache(t, 0)
	fid, err := bc.OpenFile(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Pin(fid, 3); err == nil {
		t.Fatal("expected error pinning beyond EOF")
	}
}
