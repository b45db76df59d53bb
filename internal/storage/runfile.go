package storage

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"pregelix/internal/tuple"
)

// RunFile is a sequential, append-only tuple run. Pregelix uses runs for
// the group-by's spilled sort runs, the deferred vertex updates of a
// superstep, and the per-partition Msg relation between supersteps
// (Section 5.2: message partitions are stored in temporary local files
// sorted by vid).
//
// Format: a stream of packed frame images (tuple.WriteFrame), so a whole
// frame of tuples is written and read back with bulk copies instead of
// one syscall-sized write per field.
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
// describes. PayloadBytes counts what went through the run either way.
type RunFile struct {
	path string
	f    *os.File
	w    *bufio.Writer
	// created says the file exists on disk; mem is the image of a closed
	// run that never needed one.
	created bool
	mem     []byte
	n       int64
	sz      int64

	fr  *tuple.Frame
	app tuple.FrameAppender
}

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
	f, err := os.OpenFile(r.path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
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
	if !r.app.Append(fields...) {
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
	if !r.app.AppendRef(ref) {
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
// file if this is the run's first flush, and resets the frame for
// refilling.
func (r *RunFile) flushFrame() error {
	if r.fr.Len() == 0 {
		return nil
	}
	if !r.created {
		if err := r.create(); err != nil {
			return err
		}
	}
	if err := tuple.WriteFrame(r.w, r.fr); err != nil {
		return err
	}
	r.fr.Reset()
	return nil
}

// Count returns the number of tuples written.
func (r *RunFile) Count() int64 { return r.n }

// PayloadBytes returns the total tuple payload bytes written.
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
	var firstErr error
	if r.fr != nil {
		if size := r.fr.FrameImageSize(); r.created || size > tuple.DefaultFrameSize {
			firstErr = r.flushFrame()
		} else if r.fr.Len() > 0 {
			img := bytes.NewBuffer(make([]byte, 0, size))
			firstErr = tuple.WriteFrame(img, r.fr)
			r.mem = img.Bytes()
		}
		tuple.PutFrame(r.fr)
		r.fr = nil
	}
	if r.w != nil {
		if err := r.w.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		r.w = nil
	}
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Delete releases the run: its write state, its memory image and, if one
// was created, its file. Deleting twice is harmless.
func (r *RunFile) Delete() error {
	_ = r.CloseWrite()
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
	f     *os.File // nil when the run is read from memory
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
