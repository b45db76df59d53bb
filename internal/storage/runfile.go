package storage

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"pregelix/internal/tuple"
)

// RunFile is a sequential, append-only file of tuple runs. Pregelix uses
// run files for the group-by's spilled sort runs, the deferred vertex
// updates of a superstep, and the per-partition Msg relation between
// supersteps (Section 5.2: message partitions are stored in temporary
// local files sorted by vid).
//
// Format: a stream of packed frame images (tuple.WriteFrame), so a whole
// frame of tuples is written and read back with bulk copies instead of
// one syscall-sized write per field.
//
// A file holds one run, or several: Cut ends the run being written and
// returns its extent, and what is appended next is the next run, further
// on in the same file. That is how a spilling operator keeps all of its
// runs, reading each back with ReadRun through the file's one
// descriptor: one create and one unlink per operator, not per run.
//
// A run is built in one pooled frame and leaves it through flushFrame. A
// run started with NewRunFile creates its file there, at the first
// flush, and not before: one that never outgrows its first frame — Msg
// and the updates in a sparse superstep — makes no file-system call at
// all. CloseWrite keeps its single frame image (at most
// tuple.DefaultFrameSize bytes) in a buffer the run owns, not in the
// pooled frame, and Reader and Image serve it from there. That is a
// deliberate departure from Section 5.2 for a relation smaller than the
// file's own I/O unit; anything larger is the temporary file the paper
// describes. PayloadBytes counts what went through the file either way.
type RunFile struct {
	path string
	f    *os.File
	w    *bufio.Writer
	// created says the file exists on disk; mem is the image of a closed
	// run that never needed one; closed says writing has ended.
	created bool
	mem     []byte
	closed  bool
	n       int64
	sz      int64
	// end is how many bytes went to the file; cut is where the run being
	// written starts, with n and sz as they stood there.
	end int64
	cut Run

	fr  *tuple.Frame
	app tuple.FrameAppender
}

// Run is one run of a run file, as Cut returns it: where its frame
// images lie in the file and what they hold.
type Run struct {
	off, size int64 // the extent, in bytes of the file
	n, sz     int64 // tuples and their payload bytes
}

// Count returns the number of tuples in the run.
func (r Run) Count() int64 { return r.n }

// PayloadBytes returns the tuple payload bytes in the run.
func (r Run) PayloadBytes() int64 { return r.sz }

// NewRunFile starts a run for writing whose file, at path, is created
// when its first frame fills (see RunFile).
func NewRunFile(path string) *RunFile {
	r := &RunFile{path: path, fr: tuple.GetFrame()}
	r.app.Reset(r.fr)
	return r
}

// CreateRunFile opens a new run file for writing at path, creating the
// file at once.
func CreateRunFile(path string) (*RunFile, error) {
	r := NewRunFile(path)
	if err := r.create(); err != nil {
		r.Delete()
		return nil, err
	}
	return r, nil
}

func (r *RunFile) create() error {
	f, err := os.OpenFile(r.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("runfile: create %s: %w", r.path, err)
	}
	r.f, r.w, r.created = f, bufio.NewWriterSize(f, 1<<16), true
	return nil
}

// Append writes one boxed tuple.
func (r *RunFile) Append(t tuple.Tuple) error { return r.AppendFields(t...) }

// AppendFields writes one tuple given as raw fields (copied on append).
func (r *RunFile) AppendFields(fields ...[]byte) error {
	if r.fr == nil || !r.app.Append(fields...) {
		if err := r.flushFrame(); err != nil {
			return err
		}
		if !r.app.Append(fields...) {
			return fmt.Errorf("runfile: tuple does not fit an empty frame")
		}
	}
	r.n++
	for _, f := range fields {
		r.sz += int64(len(f))
	}
	return nil
}

// AppendRef copies one packed record from a frame in a single memmove.
func (r *RunFile) AppendRef(ref tuple.TupleRef) error {
	if r.fr == nil || !r.app.AppendRef(ref) {
		if err := r.flushFrame(); err != nil {
			return err
		}
		if !r.app.AppendRef(ref) {
			return fmt.Errorf("runfile: tuple does not fit an empty frame")
		}
	}
	r.n++
	r.sz += int64(ref.Size())
	return nil
}

// AppendFrame writes every tuple of the frame.
func (r *RunFile) AppendFrame(f *tuple.Frame) error {
	for i := 0; i < f.Len(); i++ {
		if err := r.AppendRef(f.Tuple(i)); err != nil {
			return err
		}
	}
	return nil
}

// flushFrame writes the current frame image to the file, creating the
// file if this is its first flush, and resets the frame for refilling.
// After a Cut, which gave the frame back, it takes one from the pool.
func (r *RunFile) flushFrame() error {
	switch {
	case r.closed:
		return fmt.Errorf("runfile: %s: write after close", r.path)
	case r.fr == nil:
		r.fr = tuple.GetFrame()
		r.app.Reset(r.fr)
		return nil
	case r.fr.Len() == 0:
		return nil
	case !r.created:
		if err := r.create(); err != nil {
			return err
		}
	}
	if err := tuple.WriteFrame(r.w, r.fr); err != nil {
		return err
	}
	r.end += int64(r.fr.FrameImageSize())
	r.fr.Reset()
	return nil
}

// Cut ends the run being written: its last frame goes to the file (never
// into memory: a cut run has left it), the frame back to the pool, and
// the run's extent is returned for ReadRun. What is appended next starts
// the next run.
func (r *RunFile) Cut() (Run, error) {
	if r.fr != nil {
		err := r.flushFrame()
		tuple.PutFrame(r.fr)
		r.fr = nil
		if err != nil {
			return Run{}, err
		}
	}
	if r.w != nil {
		if err := r.w.Flush(); err != nil {
			return Run{}, err
		}
	}
	run := Run{off: r.cut.off, size: r.end - r.cut.off, n: r.n - r.cut.n, sz: r.sz - r.cut.sz}
	r.cut = Run{off: r.end, n: r.n, sz: r.sz}
	return run, nil
}

// ReadRun streams a run cut from this file back through the file's own
// descriptor: a section reader over the run's extent, with no buffer but
// the reader's frame. The file must not have been closed for writing.
func (r *RunFile) ReadRun(run Run) *RunReader {
	return &RunReader{r: io.NewSectionReader(r.f, run.off, run.size), fr: tuple.GetFrame()}
}

// Count returns the number of tuples written, in every run of the file.
func (r *RunFile) Count() int64 { return r.n }

// PayloadBytes returns the total tuple payload bytes written, in every
// run of the file.
func (r *RunFile) PayloadBytes() int64 { return r.sz }

// Path returns the file's path.
func (r *RunFile) Path() string { return r.path }

// CloseWrite ends writing: the last frame is flushed to the file, or —
// when no file was needed so far and the frame's image is within
// tuple.DefaultFrameSize — copied to a buffer of exactly its size, and
// the write handle is closed. The run remains for reading. The pooled
// frame and the file descriptor are released even when a flush fails
// (the first error is reported), so a failed spill cannot strand a frame
// lease or leak an fd.
func (r *RunFile) CloseWrite() error {
	var err error
	if r.fr != nil {
		if size := r.fr.FrameImageSize(); r.created || size > tuple.DefaultFrameSize {
			err = r.flushFrame()
		} else if r.fr.Len() > 0 {
			img := bytes.NewBuffer(make([]byte, 0, size))
			err = tuple.WriteFrame(img, r.fr)
			r.mem = img.Bytes()
		}
	}
	if r.w != nil {
		if ferr := r.w.Flush(); err == nil {
			err = ferr
		}
	}
	if cerr := r.release(); err == nil {
		err = cerr
	}
	return err
}

// release ends writing without writing anything: the frame goes back to
// the pool, the buffer is dropped and the descriptor closed.
func (r *RunFile) release() error {
	tuple.PutFrame(r.fr)
	r.fr, r.w, r.closed = nil, nil, true
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// Delete releases the run file: its write state, its memory image and, if
// one was created, its file. It writes nothing, so what was not yet
// flushed is dropped and a file not yet created never is. Deleting twice
// is harmless.
func (r *RunFile) Delete() error {
	_ = r.release()
	r.mem = nil
	if !r.created {
		return nil
	}
	r.created = false
	return os.Remove(r.path)
}

// Image opens the closed run's bytes for bulk copying (checkpoint and
// migration images): the same stream of frame images whether it sits in
// the file or in memory.
func (r *RunFile) Image() (io.ReadCloser, error) {
	if r.created {
		return os.Open(r.path)
	}
	return io.NopCloser(bytes.NewReader(r.mem)), nil
}

// Reader streams the closed run's tuples back, from its file or, if it
// never needed one, from memory.
func (r *RunFile) Reader() (*RunReader, error) {
	if r.created {
		return OpenRunReader(r.path)
	}
	return &RunReader{r: bytes.NewReader(r.mem), fr: tuple.GetFrame()}, nil
}

// RunReader streams tuples back from a run, loading one pooled frame at
// a time.
type RunReader struct {
	f     *os.File // the reader's own descriptor (OpenRunReader), else nil
	r     io.Reader
	fr    *tuple.Frame
	idx   int
	begun bool
}

// OpenRunReader opens the run file at path for sequential reading.
func OpenRunReader(path string) (*RunReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runfile: open %s: %w", path, err)
	}
	return &RunReader{f: f, r: bufio.NewReaderSize(f, 1<<16), fr: tuple.GetFrame()}, nil
}

// NextRef returns a zero-copy ref to the next tuple, or io.EOF at end of
// file. The ref is valid only until the next NextRef call that crosses a
// frame boundary; callers that hold tuples across reads must Materialize.
func (rr *RunReader) NextRef() (tuple.TupleRef, error) {
	for !rr.begun || rr.idx >= rr.fr.Len() {
		if err := tuple.ReadFrameInto(rr.r, rr.fr); err != nil {
			return tuple.TupleRef{}, err
		}
		rr.begun = true
		rr.idx = 0
	}
	r := rr.fr.Tuple(rr.idx)
	rr.idx++
	return r, nil
}

// Next returns the next tuple in boxed (owned) form, or (nil, io.EOF) at
// end of file.
func (rr *RunReader) Next() (tuple.Tuple, error) {
	r, err := rr.NextRef()
	if err != nil {
		return nil, err
	}
	return r.Materialize(), nil
}

// Close releases the read handle and its frame buffer.
func (rr *RunReader) Close() error {
	if rr.fr != nil {
		tuple.PutFrame(rr.fr)
		rr.fr = nil
	}
	if rr.f == nil {
		return nil
	}
	return rr.f.Close()
}

// ReadAll loads every tuple of a run file (test/tooling helper).
func ReadAll(path string) ([]tuple.Tuple, error) {
	rr, err := OpenRunReader(path)
	if err != nil {
		return nil, err
	}
	defer rr.Close()
	var out []tuple.Tuple
	for {
		t, err := rr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}
