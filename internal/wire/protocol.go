// Package wire is the network transport of the engine: the real
// counterpart of the in-process channel transport, carrying packed frame
// images between node controllers running in different OS processes.
//
// Data plane. Each process listens on one TCP address; a process with
// frames to ship dials one connection per destination process and
// multiplexes every (connector, sender partition → receiver partition)
// stream of every running job over it. Messages are length-prefixed:
//
//	+------+-----------+-----------+====================+
//	| type | stream id | length    | payload            |
//	| u8   | u32 LE    | u32 LE    | length bytes       |
//	+------+-----------+-----------+====================+
//
//	OPEN   sender → receiver  JSON stream identity (job, connector,
//	                          sender, receiver, buffer frames, optional
//	                          compression proposal)
//	DATA   sender → receiver  one frame image. On a plain stream the
//	                          payload is tuple.WriteFrame bytes, written
//	                          straight from the pooled frame — no
//	                          re-serialization. On a stream that
//	                          negotiated compression it is
//	                          [enc u8][encoded body] (see tuple's frame
//	                          codec: raw / flate / vid-delta per frame)
//	EOS    sender → receiver  end of stream
//	ERR    sender → receiver  producer failure, error text as payload
//	CREDIT receiver → sender  u32 LE grant of DATA frames; the first
//	                          CREDIT of a stream whose OPEN proposed
//	                          compression carries a fifth byte: 1 =
//	                          encoded DATA accepted, 0 = raw only
//	RESET  receiver → sender  receiver gone; sender aborts the stream
//
// Flow control is credit-based: a sender may have at most as many
// unacknowledged DATA frames in flight as the receiver has granted. The
// receiver grants the connector's buffer window when it claims a stream
// and one more credit each time it dequeues a frame, so the wire
// replaces channel blocking with an equivalent bounded window and the
// demultiplexer never blocks on a slow consumer. EOS, ERR and RESET are
// carried in-band and consume no credit.
//
// Compression is negotiated per stream so mixed clusters interoperate:
// a sender running with -compress proposes its mode in OPEN ("flate"
// or "auto"); the receiver answers in the initial CREDIT's accept
// byte. A peer that does not compress (or predates the field — it
// ignores the unknown JSON key and sends a legacy 4-byte CREDIT)
// silently downgrades the stream to raw frame images. DATA frames are
// not flushed individually: the sender's write buffer coalesces small
// frames and drains on control messages, buffer pressure, or before
// the sender blocks on credits.
//
// Control plane. The cluster controller and its workers exchange
// newline-delimited JSON envelopes over a separate connection (see
// control.go): one envelope is {id, method?, error?, data?}, where a
// non-empty method marks a request and anything else answers the
// request with the same id. The worker dials, sends a single "register"
// request, and once the controller answers it with the assembled
// topology the connection flips direction — the controller calls, the
// worker answers:
//
//	+-----------------------+---------------------------------------------+
//	| method                | payload / meaning                           |
//	+-----------------------+---------------------------------------------+
//	| register              | worker → cc   data addr + node count; the   |
//	|                       |               response is the topology (or  |
//	|                       |               parks the worker as a standby |
//	|                       |               until a failure adopts it)    |
//	| ping                  | cc → worker   reachability probe            |
//	| heartbeat             | cc → worker   liveness probe; sent every    |
//	|                       |               HeartbeatInterval. Missing    |
//	|                       |               HeartbeatMisses in a row      |
//	|                       |               declares the worker DEAD even |
//	|                       |               if its TCP connection looks   |
//	|                       |               healthy (hung process)        |
//	| dfs.put               | cc → worker   replicate an input file       |
//	| job.begin / job.end   | cc → worker   open / tear down a job        |
//	|                       |               session (partition state);    |
//	|                       |               job.end with retain seals the |
//	|                       |               session's vertex B-trees into |
//	|                       |               a result version the query    |
//	|                       |               verbs serve, and the reply    |
//	|                       |               names the partitions retained |
//	| job.load              | cc → worker   run the loading phase         |
//	| job.superstep         | cc → worker   run one superstep job (ss,    |
//	|                       |               global state, join plan,      |
//	|                       |               recovery attempt)             |
//	| job.dump              | cc → worker   run the dump phase            |
//	| job.cancel, job.abort | cc → worker   cancel the in-flight phase    |
//	|                       |               ONLY — the session survives,  |
//	|                       |               so a restore can follow; the  |
//	|                       |               reply waits for task drain    |
//	| cluster.reconfigure   | cc → worker   install new topology: owned-  |
//	|                       |               node set + peer routing table |
//	|                       |               (after a failure repair or an |
//	|                       |               elastic rebalance), plus jobs |
//	|                       |               whose parked streams to purge |
//	| partition.send        | cc → worker   image partitions (vertex +    |
//	|                       |               msgs, frame images): named    |
//	|                       |               ones for a migration or a     |
//	|                       |               split, every owned one for a  |
//	|                       |               checkpoint (the reply is the  |
//	|                       |               worker's ack in the manifest  |
//	|                       |               commit), or a sealed          |
//	|                       |               version's for a delta clone;  |
//	|                       |               live ones stay live until the |
//	|                       |               drop                          |
//	| partition.recv        | cc → worker   adopt the split table + epoch,|
//	|                       |               then install partition images |
//	|                       |               (rebuild Vertex/Msg/Vid): a   |
//	|                       |               migration, split children,    |
//	|                       |               none at all (a split being    |
//	|                       |               announced), or — after a      |
//	|                       |               reset of the session — a      |
//	|                       |               checkpoint restore            |
//	| partition.drop        | cc → worker   reclaim partition copies: the |
//	|                       |               originals once the new owner  |
//	|                       |               acked, or what an aborted     |
//	|                       |               movement installed            |
//	| worker.release        | cc → worker   end of a drain: the worker    |
//	|                       |               hosts nothing and may exit    |
//	| query.point           | cc → worker   batched point lookups against |
//	|                       |               an exact sealed result        |
//	|                       |               version's retained B-trees    |
//	| query.topk            | cc → worker   the worker's local top-k by   |
//	|                       |               vertex value; the controller  |
//	|                       |               merges per-worker lists       |
//	| delta.ingest          | cc → worker   open a delta session: clone   |
//	|                       |               the named sealed version's    |
//	|                       |               partitions, apply a routed    |
//	|                       |               mutation batch through the    |
//	|                       |               job's Resolver, accumulate    |
//	|                       |               the dirty vertex set          |
//	| delta.run             | cc → worker   arm the delta session: mark   |
//	|                       |               the dirty frontier live and   |
//	|                       |               seed the global state so      |
//	|                       |               job.superstep rounds refresh  |
//	|                       |               incrementally; job.end seals  |
//	|                       |               the clone as the new version  |
//	| worker.drain          | worker → cc   NOTIFICATION (no reply): a    |
//	|                       |               departing worker asks to have |
//	|                       |               its partitions migrated out   |
//	+-----------------------+---------------------------------------------+
//
// Failure notification needs no message of its own: a crashed worker's
// connection breaks (failing its pending calls at the controller), and
// a hung worker is converted into a broken connection by the heartbeat
// monitor closing it. Data-plane streams to a dead process fail their
// senders the same way, and RESET unblocks anything still parked.
// worker.drain is the single worker-initiated message; the controller's
// Caller surfaces it through OnNotify rather than response matching.
// The verbs and their payload schemas live in internal/core/dist.go;
// this package carries them opaquely.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pregelix/internal/tuple"
)

// Data-plane message types.
const (
	msgOpen byte = iota + 1
	msgData
	msgEOS
	msgErr
	msgCredit
	msgReset
)

// dataMagic is the preamble a dialer writes on a fresh data connection.
const dataMagic = "PGXW1\n"

// ctrlMagic is the preamble of control-plane connections.
const ctrlMagic = "PGXC1\n"

// maxCtrlPayload bounds non-frame payloads (OPEN JSON, error text) so a
// corrupt header cannot drive a huge allocation.
const maxCtrlPayload = 1 << 20

// openInfo identifies one stream: the payload of an OPEN message.
//
//	field    | JSON     | meaning
//	---------+----------+---------------------------------------------
//	Job      | job      | job name the stream belongs to
//	Conn     | conn     | connector id within the job ("src->sink")
//	Sender   | sender   | sending partition index
//	Receiver | receiver | receiving partition index
//	Buffer   | buffer   | frame window, granted as the initial credit
//	Comp     | comp     | compression proposal: "flate", "auto", or
//	         |          | omitted (raw frames only)
//
// Comp is omitted from the wire entirely for raw senders, so peers
// that predate the field parse OPEN unchanged; unknown future values
// are treated as no proposal by the receiver.
type openInfo struct {
	Job      string `json:"job"`
	Conn     string `json:"conn"`
	Sender   int    `json:"sender"`
	Receiver int    `json:"receiver"`
	// Buffer is the connector's frame window; the receiver grants it as
	// the stream's initial credit.
	Buffer int `json:"buffer"`
	// Comp is the sender's compression proposal ("flate" or "auto";
	// empty = raw frames only). The receiver answers with the accept
	// byte of the stream's initial CREDIT.
	Comp string `json:"comp,omitempty"`
}

// msgHeader is the fixed 9-byte message prefix.
type msgHeader struct {
	typ    byte
	stream uint32
	length uint32
}

func writeHeader(w io.Writer, h msgHeader) error {
	var buf [9]byte
	buf[0] = h.typ
	binary.LittleEndian.PutUint32(buf[1:], h.stream)
	binary.LittleEndian.PutUint32(buf[5:], h.length)
	_, err := w.Write(buf[:])
	return err
}

func readHeader(r io.Reader) (msgHeader, error) {
	var buf [9]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return msgHeader{}, err
	}
	return msgHeader{
		typ:    buf[0],
		stream: binary.LittleEndian.Uint32(buf[1:]),
		length: binary.LittleEndian.Uint32(buf[5:]),
	}, nil
}

// writeMsg writes one non-frame message and flushes.
func writeMsg(w *bufio.Writer, typ byte, stream uint32, payload []byte) error {
	if err := writeHeader(w, msgHeader{typ: typ, stream: stream, length: uint32(len(payload))}); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return w.Flush()
}

// writeFrameMsg writes one DATA message: the header followed by the
// frame image streamed straight out of the frame buffer. The bytes
// stay in the connection's write buffer — the sender flushes before
// blocking on credits and on every control message, so small frames
// coalesce into one syscall instead of paying a flush each. It returns
// the message's on-wire size.
func writeFrameMsg(w *bufio.Writer, stream uint32, f *tuple.Frame) (int, error) {
	n := f.FrameImageSize()
	if err := writeHeader(w, msgHeader{typ: msgData, stream: stream, length: uint32(n)}); err != nil {
		return 0, err
	}
	if err := tuple.WriteFrame(w, f); err != nil {
		return 0, err
	}
	return 9 + n, nil
}

// writeEncFrameMsg writes one DATA message on a stream that negotiated
// compression: [enc u8][encoded body], with raw fallback images still
// streamed zero-copy out of the frame buffer. It returns the message's
// on-wire size.
func writeEncFrameMsg(w *bufio.Writer, stream uint32, f *tuple.Frame, e *tuple.FrameEncoder) (int, error) {
	enc, payload, err := e.EncodeFrame(f)
	if err != nil {
		return 0, err
	}
	n := len(payload)
	if enc == tuple.EncRaw {
		n = f.FrameImageSize()
	}
	if err := writeHeader(w, msgHeader{typ: msgData, stream: stream, length: uint32(1 + n)}); err != nil {
		return 0, err
	}
	if err := w.WriteByte(enc); err != nil {
		return 0, err
	}
	if enc == tuple.EncRaw {
		if err := tuple.WriteFrame(w, f); err != nil {
			return 0, err
		}
	} else if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return 9 + 1 + n, nil
}

// readFrame reads one DATA payload into a pooled frame, validating that
// the image consumed exactly the advertised length.
func readFrame(r *bufio.Reader, length uint32) (*tuple.Frame, error) {
	lr := &io.LimitedReader{R: r, N: int64(length)}
	f := tuple.GetFrame()
	if err := tuple.ReadFrameInto(lr, f); err != nil {
		tuple.PutFrame(f)
		return nil, err
	}
	if lr.N != 0 {
		tuple.PutFrame(f)
		return nil, fmt.Errorf("wire: frame image shorter than header length (%d bytes left)", lr.N)
	}
	return f, nil
}

// readEncFrame reads one encoded DATA payload ([enc u8][body]) into a
// pooled frame through the connection's decoder.
func readEncFrame(r *bufio.Reader, length uint32, d *tuple.FrameDecoder) (*tuple.Frame, error) {
	if length < 1 {
		return nil, fmt.Errorf("wire: empty encoded DATA message")
	}
	enc, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	f := tuple.GetFrame()
	if err := d.DecodeInto(enc, r, int(length-1), f); err != nil {
		tuple.PutFrame(f)
		return nil, err
	}
	return f, nil
}

// readPayload reads a bounded non-frame payload.
func readPayload(r *bufio.Reader, length uint32) ([]byte, error) {
	if length > maxCtrlPayload {
		return nil, fmt.Errorf("wire: implausible %d-byte control payload", length)
	}
	buf := make([]byte, length)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
