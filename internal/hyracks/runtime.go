package hyracks

import (
	"context"
	"fmt"

	"pregelix/internal/tuple"
)

// BaseRuntime provides output bookkeeping for PushRuntime implementations:
// embed it and use Emit/EmitRef/EmitFields/OpenOutputs/CloseOutputs/
// FailOutputs. Each output port owns one packed frame that is filled in
// place and flushed downstream when an append no longer fits; because
// NextFrame passes frames by borrow (the callee copies what it retains),
// the port frame is reset and refilled with no per-flush allocation.
type BaseRuntime struct {
	Outs []FrameWriter
	bufs []*tuple.Frame
	apps []tuple.FrameAppender
}

// SetOutputs records the output writers (one per port). Port frames come
// from the shared pool and are returned by CloseOutputs/FailOutputs, so
// a task leaves no frame leased behind on either path.
func (b *BaseRuntime) SetOutputs(outs []FrameWriter) {
	b.Outs = outs
	b.bufs = make([]*tuple.Frame, len(outs))
	b.apps = make([]tuple.FrameAppender, len(outs))
	for i := range b.bufs {
		b.bufs[i] = tuple.GetFrame()
		b.apps[i].Reset(b.bufs[i])
	}
}

// releaseFrames returns the port frames to the pool (idempotent).
func (b *BaseRuntime) releaseFrames() {
	for i, f := range b.bufs {
		if f != nil {
			tuple.PutFrame(f)
			b.bufs[i] = nil
		}
	}
}

// OpenOutputs opens every downstream writer.
func (b *BaseRuntime) OpenOutputs() error {
	for _, o := range b.Outs {
		if err := o.Open(); err != nil {
			return err
		}
	}
	return nil
}

// Emit packs a boxed tuple onto an output port, flushing full frames.
func (b *BaseRuntime) Emit(port int, t tuple.Tuple) error {
	return b.EmitFields(port, t...)
}

// EmitFields packs one tuple from its fields onto an output port. The
// field slices are copied into the port frame, so callers may reuse them.
func (b *BaseRuntime) EmitFields(port int, fields ...[]byte) error {
	if port >= len(b.Outs) {
		return nil // unconnected port: discard
	}
	if b.apps[port].Append(fields...) {
		return nil
	}
	if err := b.FlushPort(port); err != nil {
		return err
	}
	if !b.apps[port].Append(fields...) {
		return fmt.Errorf("hyracks: tuple does not fit an empty frame")
	}
	return nil
}

// EmitRef copies one packed record onto an output port in a single
// memmove — the zero-boxing fast path for pass-through operators.
func (b *BaseRuntime) EmitRef(port int, r tuple.TupleRef) error {
	if port >= len(b.Outs) {
		return nil
	}
	if b.apps[port].AppendRef(r) {
		return nil
	}
	if err := b.FlushPort(port); err != nil {
		return err
	}
	if !b.apps[port].AppendRef(r) {
		return fmt.Errorf("hyracks: tuple does not fit an empty frame")
	}
	return nil
}

// FlushPort pushes the buffered frame of one port downstream and resets
// it for refilling (NextFrame borrows the frame; it does not keep it).
func (b *BaseRuntime) FlushPort(port int) error {
	f := b.bufs[port]
	if f == nil || f.Len() == 0 {
		return nil
	}
	if err := b.Outs[port].NextFrame(f); err != nil {
		return err
	}
	f.Reset()
	return nil
}

// CloseOutputs flushes remaining buffers and closes every writer.
func (b *BaseRuntime) CloseOutputs() error {
	var firstErr error
	for i := range b.Outs {
		if err := b.FlushPort(i); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, o := range b.Outs {
		if err := o.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	b.releaseFrames()
	return firstErr
}

// FailOutputs propagates failure downstream.
func (b *BaseRuntime) FailOutputs(err error) {
	for _, o := range b.Outs {
		o.Fail(err)
	}
	b.releaseFrames()
}

// BaseSource provides the same helpers for SourceRuntime implementations.
type BaseSource struct{ BaseRuntime }

// discardWriter swallows frames written to unconnected ports.
type discardWriter struct{}

func (discardWriter) Open() error                    { return nil }
func (discardWriter) NextFrame(f *tuple.Frame) error { return nil }
func (discardWriter) Fail(err error)                 {}
func (discardWriter) Close() error                   { return nil }

// FuncSource adapts a function to a SourceRuntime; used by scans and
// loaders. The function receives the output writers already opened.
type FuncSource struct {
	BaseSource
	F func(ctx context.Context, b *BaseSource) error
}

// Run opens outputs, invokes F, then closes or fails outputs.
func (s *FuncSource) Run(ctx context.Context) error {
	if err := s.OpenOutputs(); err != nil {
		s.FailOutputs(err)
		return err
	}
	if err := s.F(ctx, &s.BaseSource); err != nil {
		s.FailOutputs(err)
		return err
	}
	return s.CloseOutputs()
}

// FuncRuntime adapts callbacks to a PushRuntime; used by simple
// per-tuple transforms and sinks. At most one of OnRef/OnTuple is
// consulted per tuple; OnRef wins when both are set.
type FuncRuntime struct {
	BaseRuntime
	OnOpen func(b *BaseRuntime) error
	// OnTuple receives a borrowed, allocation-free view of each tuple:
	// the Tuple header and its field slices are valid only until the
	// callback returns. Callbacks that retain the tuple must Clone it.
	OnTuple func(b *BaseRuntime, t tuple.Tuple) error
	// OnRef receives the zero-copy frame reference of each tuple, for
	// sinks that repack records (e.g. run-file writers).
	OnRef   func(b *BaseRuntime, r tuple.TupleRef) error
	OnClose func(b *BaseRuntime) error
	// OnFail releases resources acquired in OnOpen when the task aborts
	// (job cancellation, a peer's failure): OnClose is NOT called on the
	// failure path, so sinks holding files, pooled frames or index
	// loaders must clean up here or strand them.
	OnFail func(b *BaseRuntime, err error)

	failed  bool
	scratch tuple.Tuple
}

// Open opens downstream and invokes OnOpen.
func (r *FuncRuntime) Open() error {
	if err := r.OpenOutputs(); err != nil {
		return err
	}
	if r.OnOpen != nil {
		return r.OnOpen(&r.BaseRuntime)
	}
	return nil
}

// NextFrame applies OnRef (or the OnTuple view) to each tuple.
func (r *FuncRuntime) NextFrame(f *tuple.Frame) error {
	if r.OnRef == nil && r.OnTuple == nil {
		return nil
	}
	for i := 0; i < f.Len(); i++ {
		ref := f.Tuple(i)
		if r.OnRef != nil {
			if err := r.OnRef(&r.BaseRuntime, ref); err != nil {
				return err
			}
			continue
		}
		r.scratch = ref.AppendFieldsTo(r.scratch[:0])
		if err := r.OnTuple(&r.BaseRuntime, r.scratch); err != nil {
			return err
		}
	}
	return nil
}

// Fail releases OnOpen resources via OnFail and propagates failure
// downstream.
func (r *FuncRuntime) Fail(err error) {
	r.failed = true
	if r.OnFail != nil {
		r.OnFail(&r.BaseRuntime, err)
	}
	r.FailOutputs(err)
}

// Close finalizes via OnClose and closes downstream.
func (r *FuncRuntime) Close() error {
	if r.failed {
		return nil
	}
	if r.OnClose != nil {
		if err := r.OnClose(&r.BaseRuntime); err != nil {
			r.FailOutputs(err)
			return err
		}
	}
	return r.CloseOutputs()
}
