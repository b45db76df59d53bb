package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

// The control plane connects each worker to the cluster controller with
// one long-lived TCP connection carrying length-prefixed frames. The
// worker dials and sends a single registration request; once the
// controller has assembled the cluster it responds, and the connection
// flips direction: the controller issues RPCs (load this file, run this
// phase, cancel this job) and the worker answers. A frame with a
// non-empty method is a request; anything else is the response to the
// request with the same id.
//
// One frame, integers little-endian:
//
//	+-----+-----+-------+------+-------+-------+-------+--------+--------+---------+=============+
//	| len | id  | flags | code | m len | h len | n     | method | header | n × u32 | attachments |
//	| u32 | u64 | u8    | u8   | u8    | u32   | u16   |        |        | lengths | (raw bytes) |
//	+-----+-----+-------+------+-------+-------+-------+--------+--------+---------+=============+
//
// len counts every byte after itself. The header is the message's JSON,
// decoded once; a message with bulk byte fields (checkpoint and
// migration images, input files, dump rows) implements Attacher and
// carries them as attachments instead: written from where they lie,
// read with the frame into one buffer of its size and handed over as
// views of it — no base64, no second parse. A failed reply sets
// flagError: its header is the error text and code names the Sentinel
// the handler's error wrapped (0 for none). Any other flag bit, a code
// on a frame that is not an error, an error without text, or lengths
// that do not add up to len exactly is a malformed frame, and the
// reading side drops the connection.

// Envelope is one control-plane message.
type Envelope struct {
	ID     int64
	Method string
	// Error, when set, makes the message a failed reply: the error's text,
	// with Code the Sentinel it wrapped (0 for none).
	Error string
	Code  uint8
	// Data is the JSON header and Blobs the attachments (see Attacher).
	Data  json.RawMessage
	Blobs [][]byte
}

// Attacher is implemented by (a pointer to) a message with bulk byte
// fields. They leave its JSON (tag them `json:"-"`) and travel as the
// frame's attachments, in the order Attachments lists them; on the
// receiving side it is asked once the header is decoded, so its count
// may depend on the header.
type Attacher interface {
	Attachments() []*[]byte
}

// encodeMsg renders a message as a JSON header plus, for an Attacher,
// its attachments.
func encodeMsg(v any) (json.RawMessage, [][]byte, error) {
	var blobs [][]byte
	if a, ok := v.(Attacher); ok {
		for _, f := range a.Attachments() {
			blobs = append(blobs, *f)
		}
	}
	data, err := json.Marshal(v)
	return data, blobs, err
}

// Decode unmarshals the JSON header into v and hands an Attacher its
// attachments. A count other than the one v expects is an error.
func (e *Envelope) Decode(v any) error {
	if len(e.Data) > 0 {
		if err := json.Unmarshal(e.Data, v); err != nil {
			return err
		}
	}
	var fields []*[]byte
	if a, ok := v.(Attacher); ok {
		fields = a.Attachments()
	}
	if len(fields) != len(e.Blobs) {
		return fmt.Errorf("wire: %d attachments for the %d byte fields of a %T", len(e.Blobs), len(fields), v)
	}
	for i, f := range fields {
		*f = e.Blobs[i]
	}
	return nil
}

// Sentinel returns an error value that keeps its identity across the
// control plane: a handler's error wrapping it arrives at the caller
// satisfying errors.Is against the same value. code must be nonzero and
// unique among the program's sentinels.
func Sentinel(code uint8, text string) error { return &codedError{code: code, text: text} }

// codedError is a Sentinel, or a failed reply carrying the code of the
// Sentinel its handler's error wrapped (0 for none).
type codedError struct {
	code uint8
	text string
}

func (e *codedError) Error() string { return e.text }

func (e *codedError) Is(target error) bool {
	t, ok := target.(*codedError)
	return ok && e.code != 0 && t.code == e.code
}

const (
	// frameFixed is the size of a frame's fixed fields after len.
	frameFixed = 8 + 1 + 1 + 1 + 4 + 2
	flagError  = 1
	// maxControlFrame bounds one frame. Readers grow their buffers only
	// as bytes arrive, so a length a peer merely claims costs nothing.
	maxControlFrame = 1 << 30
	// blobChunk is the connection's read buffer, and the first buffer a
	// read of a claimed length gets.
	blobChunk = 64 << 10
)

var errMalformed = errors.New("wire: malformed control frame")

// appendHead appends env's frame to dst, all but the attachments'
// bytes, which follow it on the wire as they are.
func appendHead(dst []byte, env *Envelope) ([]byte, error) {
	hdr, flags := []byte(env.Data), byte(0)
	if env.Error != "" {
		hdr, flags = []byte(env.Error), flagError
	} else if env.Code != 0 {
		return nil, errors.New("wire: an error code without an error")
	}
	size := frameFixed + len(env.Method) + len(hdr) + 4*len(env.Blobs)
	for _, b := range env.Blobs {
		size += len(b)
	}
	if len(env.Method) > math.MaxUint8 || len(env.Blobs) > math.MaxUint16 || size > maxControlFrame {
		return nil, fmt.Errorf("wire: %q frame too large (%d bytes, %d attachments)", env.Method, size, len(env.Blobs))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(size))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(env.ID))
	dst = append(dst, flags, env.Code, byte(len(env.Method)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(hdr)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(env.Blobs)))
	dst = append(dst, env.Method...)
	dst = append(dst, hdr...)
	for _, b := range env.Blobs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	}
	return dst, nil
}

// readFrame reads one frame into one buffer of its size, of which the
// header and the attachments are views. The end of the stream between
// frames is io.EOF; inside one it is io.ErrUnexpectedEOF.
func readFrame(r *bufio.Reader) (Envelope, error) {
	pre, err := r.Peek(4)
	if len(pre) > 0 && err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return Envelope{}, err
	}
	size := binary.LittleEndian.Uint32(pre)
	if size < frameFixed || size > maxControlFrame {
		return Envelope{}, fmt.Errorf("wire: implausible %d-byte control frame", size)
	}
	r.Discard(4)
	f, err := readBlob(r, int(size))
	if err != nil {
		return Envelope{}, err
	}
	env := Envelope{ID: int64(binary.LittleEndian.Uint64(f)), Code: f[9]}
	flags, mlen := f[8], int64(f[10])
	hlen, n := int64(binary.LittleEndian.Uint32(f[11:])), int64(binary.LittleEndian.Uint16(f[15:]))
	f = f[frameFixed:]
	if flags&^flagError != 0 || flags == 0 && env.Code != 0 || flags != 0 && hlen == 0 || mlen+hlen+4*n > int64(len(f)) {
		return Envelope{}, errMalformed
	}
	env.Method, f = string(f[:mlen]), f[mlen:]
	if flags != 0 {
		env.Error = string(f[:hlen])
	} else if hlen > 0 {
		env.Data = f[:hlen:hlen]
	}
	lens, f := f[hlen:hlen+4*n], f[hlen+4*n:]
	for i := range n {
		l := int64(binary.LittleEndian.Uint32(lens[4*i:]))
		if l > int64(len(f)) {
			return Envelope{}, errMalformed
		}
		env.Blobs, f = append(env.Blobs, f[:l:l]), f[l:]
	}
	if len(f) > 0 {
		return Envelope{}, errMalformed
	}
	return env, nil
}

// readBlob reads n bytes into a buffer of exactly n, grown only as the
// bytes arrive.
func readBlob(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, blobChunk))
	for got := 0; ; {
		m, err := io.ReadFull(r, buf[got:])
		if got += m; err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		} else if err != nil {
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		grown := make([]byte, min(2*got, n))
		copy(grown, buf)
		buf = grown
	}
}

// ControlConn frames envelopes over one connection. Reads are owned by
// a single goroutine; writes are serialized internally.
type ControlConn struct {
	conn net.Conn
	r    *bufio.Reader
	wmu  sync.Mutex
	head []byte // the last frame head written, reused under wmu
}

// DialControl opens a control connection to the cluster controller.
func DialControl(addr string) (*ControlConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial control %s: %w", addr, err)
	}
	if _, err := conn.Write([]byte(ctrlMagic)); err != nil {
		conn.Close()
		return nil, err
	}
	return newControlConn(conn), nil
}

// AcceptControl wraps an accepted connection after verifying the
// control-plane preamble.
func AcceptControl(conn net.Conn) (*ControlConn, error) {
	magic := make([]byte, len(ctrlMagic))
	if _, err := io.ReadFull(conn, magic); err != nil {
		return nil, err
	}
	if string(magic) != ctrlMagic {
		return nil, errors.New("wire: not a control connection of this protocol version")
	}
	return newControlConn(conn), nil
}

func newControlConn(conn net.Conn) *ControlConn {
	return &ControlConn{conn: conn, r: bufio.NewReaderSize(conn, blobChunk)}
}

// Send writes one envelope as one frame: the head, then the
// attachments in one vectored write.
func (c *ControlConn) Send(env Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	head, err := appendHead(c.head[:0], &env)
	if err != nil {
		return err
	}
	c.head = head
	if len(env.Blobs) == 0 {
		_, err = c.conn.Write(head)
		return err
	}
	bufs := append(net.Buffers{head}, env.Blobs...)
	_, err = bufs.WriteTo(c.conn)
	return err
}

// Read blocks for the next envelope.
func (c *ControlConn) Read() (Envelope, error) { return readFrame(c.r) }

// Close closes the underlying connection (unblocking Read).
func (c *ControlConn) Close() error { return c.conn.Close() }

// RemoteAddr returns the peer address.
func (c *ControlConn) RemoteAddr() string { return c.conn.RemoteAddr().String() }

// ---------------------------------------------------------------------------
// Caller: the controller's side of an established worker connection.
// ---------------------------------------------------------------------------

// Caller issues RPCs over a control connection and matches responses to
// waiting calls. Start the read loop once the handshake is done.
type Caller struct {
	c      *ControlConn
	notify func(Envelope)

	mu      sync.Mutex
	next    int64
	pending map[int64]chan Envelope
	err     error
}

// NewCaller wraps an established connection.
func NewCaller(c *ControlConn) *Caller {
	return &Caller{c: c, pending: make(map[int64]chan Envelope)}
}

// OnNotify registers a handler for unsolicited requests arriving on
// this connection — envelopes with a non-empty Method, which cannot be
// the response to any outstanding call. The control plane is otherwise
// strictly controller-calls/worker-answers; notifications are the one
// reverse-direction message (a worker requesting a graceful drain). No
// reply is sent. Must be set before Start; handlers run on their own
// goroutine so they may issue RPCs back over the same connection.
func (k *Caller) OnNotify(fn func(Envelope)) { k.notify = fn }

// Start launches the response-matching read loop. It returns when the
// connection dies, failing every outstanding and future call.
func (k *Caller) Start() {
	go func() {
		for {
			env, err := k.c.Read()
			if err != nil {
				k.fail(fmt.Errorf("wire: control connection lost: %w", err))
				return
			}
			if env.Method != "" {
				// A request from the peer, not a response: dispatch it as
				// a notification (or drop it when no handler is set).
				if k.notify != nil {
					go k.notify(env)
				}
				continue
			}
			k.mu.Lock()
			ch := k.pending[env.ID]
			delete(k.pending, env.ID)
			k.mu.Unlock()
			if ch != nil {
				ch <- env
			}
		}
	}()
}

func (k *Caller) fail(err error) {
	k.mu.Lock()
	if k.err == nil {
		k.err = err
	}
	pend := k.pending
	k.pending = make(map[int64]chan Envelope)
	k.mu.Unlock()
	for _, ch := range pend {
		ch <- Envelope{Error: err.Error()}
	}
}

// Err returns the terminal connection error, if any.
func (k *Caller) Err() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.err
}

// Call issues one request and blocks for its response (or ctx expiry —
// note an abandoned response is dropped by the read loop, not cancelled
// remotely; pair Call with an explicit cancel RPC for long phases).
// params and result travel as JSON headers plus, for an Attacher, its
// attachments.
func (k *Caller) Call(ctx context.Context, method string, params, result any) error {
	data, blobs, err := encodeMsg(params)
	if err != nil {
		return err
	}
	ch := make(chan Envelope, 1)
	k.mu.Lock()
	if k.err != nil {
		err := k.err
		k.mu.Unlock()
		return err
	}
	k.next++
	id := k.next
	k.pending[id] = ch
	k.mu.Unlock()

	if err := k.c.Send(Envelope{ID: id, Method: method, Data: data, Blobs: blobs}); err != nil {
		k.mu.Lock()
		delete(k.pending, id)
		k.mu.Unlock()
		return err
	}
	select {
	case env := <-ch:
		if env.Error != "" {
			// A code names the Sentinel the handler's error wrapped.
			return &codedError{text: env.Error, code: env.Code}
		}
		if result != nil {
			return env.Decode(result)
		}
		return nil
	case <-ctx.Done():
		k.mu.Lock()
		delete(k.pending, id)
		k.mu.Unlock()
		return ctx.Err()
	}
}

// Serve runs the worker's side of an established connection: each
// incoming request is handed to handler on its own goroutine (its
// Decode takes the header and the attachments), and the return value —
// or the error, with its Sentinel code — is sent back under the request
// ID. It returns when the connection dies.
func Serve(c *ControlConn, handler func(req *Envelope) (any, error)) error {
	for {
		req, err := c.Read()
		if err != nil {
			return err
		}
		if req.Method == "" {
			continue // stray response; nothing to match it to
		}
		go func() {
			resp := Envelope{ID: req.ID}
			out, err := handler(&req)
			if err == nil && out != nil {
				resp.Data, resp.Blobs, err = encodeMsg(out)
			}
			if err != nil {
				resp = Envelope{ID: req.ID, Error: err.Error()}
				if ce := (*codedError)(nil); errors.As(err, &ce) {
					resp.Code = ce.code
				}
			}
			if err := c.Send(resp); err != nil && resp.Error == "" {
				// A reply no frame can hold still answers the call.
				c.Send(Envelope{ID: req.ID, Error: err.Error()})
			}
		}()
	}
}

// ServeControl is Serve for a handler that reads only JSON headers.
func ServeControl(c *ControlConn, handler func(method string, data json.RawMessage) (any, error)) error {
	return Serve(c, func(req *Envelope) (any, error) { return handler(req.Method, req.Data) })
}
