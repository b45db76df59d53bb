package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"pregelix/internal/tuple"
)

// fuzzConn is a connection whose reads come from a fixed input and
// whose writes vanish. It implements only what the transport uses of a
// connection: Read, Write and Close, which it records.
type fuzzConn struct {
	net.Conn
	in     io.Reader
	closed atomic.Bool
}

func (c *fuzzConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *fuzzConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *fuzzConn) Close() error                { c.closed.Store(true); return nil }

// wireMsg frames one data-plane message.
func wireMsg(typ byte, stream uint32, payload []byte) []byte {
	var hdr [9]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], stream)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
	return append(hdr[:], payload...)
}

// dataMsg frames one DATA message carrying f under mode.
func dataMsg(stream uint32, f *tuple.Frame, mode tuple.CompressMode) []byte {
	enc, body, _ := tuple.NewFrameEncoder(mode).EncodeFrame(f)
	if enc == tuple.EncRaw {
		var img bytes.Buffer
		tuple.WriteFrame(&img, f)
		body = img.Bytes()
	}
	return wireMsg(msgData, stream, append([]byte{enc}, body...))
}

func openMsg(stream uint32, job string, buffer int) []byte {
	info, _ := json.Marshal(openInfo{Job: job, Conn: "a->b", Buffer: buffer})
	return wireMsg(msgOpen, stream, info)
}

// modelStream is what one parked stream must hold after the input:
// its packets in delivery order, rendered by packetString.
type modelStream struct {
	key  streamKey
	cap  int
	live bool // still the parked stream for its key
	pkts []string
}

func packetString(f *tuple.Frame, eos bool, err error) string {
	switch {
	case f != nil:
		var img bytes.Buffer
		tuple.WriteFrame(&img, f)
		return "F" + img.String()
	case eos:
		return "E"
	}
	return "R" + err.Error()
}

// demuxModel replays data as the demultiplexer of a process with no
// registered connectors must: every OPEN parks a stream of its own.
// It returns the streams in OPEN order, and how the input ends: at a
// message boundary, inside a message (truncated), or at the first
// malformed message, past which nothing may be read.
func demuxModel(data []byte) (streams []*modelStream, malformed, truncated bool) {
	var dec tuple.FrameDecoder
	f := tuple.GetFrame()
	defer tuple.PutFrame(f)
	byID := map[uint32]*modelStream{}
	byKey := map[streamKey]*modelStream{}
	deliver := func(st *modelStream, pkt string) {
		if st != nil && st.live && len(st.pkts) < st.cap {
			st.pkts = append(st.pkts, pkt)
		}
	}
	for r := data; len(r) > 0; {
		if len(r) < 9 {
			return streams, false, true
		}
		typ, id, n := r[0], binary.LittleEndian.Uint32(r[1:]), binary.LittleEndian.Uint32(r[5:])
		r = r[9:]
		if (typ == msgOpen || typ == msgErr) && n > maxCtrlPayload ||
			typ == msgData && byID[id] != nil && n == 0 ||
			typ == msgEOS && n != 0 || typ < msgOpen || typ > msgErr {
			return streams, true, false
		}
		if uint32(len(r)) < n {
			return streams, false, true
		}
		body := r[:n]
		r = r[n:]
		switch typ {
		case msgOpen:
			var info openInfo
			if err := json.Unmarshal(body, &info); err != nil || info.Buffer < 1 || info.Buffer > maxStreamBuffer {
				return streams, true, false
			}
			st := &modelStream{key: streamKey{info.Job, info.Conn, info.Sender, info.Receiver}, cap: info.Buffer + 4, live: true}
			if old := byKey[st.key]; old != nil {
				old.live = false
			}
			byKey[st.key], byID[id] = st, st
			streams = append(streams, st)
		case msgData:
			if st := byID[id]; st != nil {
				if err := dec.DecodeInto(body[0], bytes.NewReader(body[1:]), len(body)-1, f); err != nil {
					return streams, true, false
				}
				deliver(st, packetString(f, false, nil))
			}
		case msgEOS:
			deliver(byID[id], "E")
			delete(byID, id)
		case msgErr:
			deliver(byID[id], packetString(nil, false, errors.New(string(body))))
			delete(byID, id)
		}
	}
	return streams, false, false
}

// fuzzDemux feeds data, after the data magic, to the demultiplexer of
// one accepted connection and checks it against demuxModel. When the
// input does not end inside a message, a sentinel stream follows it: it
// must arrive after well-formed input and never after malformed input,
// which proves the connection was dropped there.
func fuzzDemux(t *testing.T, data []byte, sentinel []byte) {
	leases := tuple.LeasedFrames()
	if _, _, truncated := demuxModel(data); !truncated {
		data = append(data[:len(data):len(data)], sentinel...)
	}
	want, _, _ := demuxModel(data)
	tr, err := NewTCPTransport(Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn := &fuzzConn{in: io.MultiReader(strings.NewReader(dataMagic), bytes.NewReader(data))}
	tr.wg.Add(1)
	tr.serveData(conn)
	if !conn.closed.Load() {
		t.Fatal("demultiplexer returned without closing its connection")
	}
	live := 0
	for _, m := range want {
		if !m.live {
			continue
		}
		live++
		st := tr.pending[m.key]
		if st == nil {
			t.Fatalf("stream %+v was not parked", m.key)
		}
		var got []string
		for drained := false; !drained; {
			select {
			case pkt := <-st.inbox:
				got = append(got, packetString(pkt.Frame, pkt.EOS, pkt.Err))
				if pkt.Frame != nil {
					tuple.PutFrame(pkt.Frame)
				}
			default:
				drained = true
			}
		}
		if strings.Join(got, "|") != strings.Join(m.pkts, "|") {
			t.Fatalf("stream %+v holds %d packets, want %d (or different ones)", m.key, len(got), len(m.pkts))
		}
	}
	if len(tr.pending) != live {
		t.Fatalf("%d streams parked, want %d", len(tr.pending), live)
	}
	tr.Close()
	if now := tuple.LeasedFrames(); now != leases {
		t.Fatalf("%d frames leased after the connection, %d before", now, leases)
	}
}

// fuzzCredits feeds data to the sender's CREDIT/RESET reader on a
// connection carrying streams 1-3 and checks each stream's credits and
// reset against the well-formed prefix, and that the connection fails
// as a protocol error exactly when the input holds a malformed message.
func fuzzCredits(t *testing.T, data []byte) {
	tr, err := NewTCPTransport(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	conn := &fuzzConn{in: bytes.NewReader(data)}
	c := &sendConn{t: tr, addr: "peer", conn: conn, streams: map[uint32]*sendStream{}}
	for id := uint32(1); id <= 3; id++ {
		c.streams[id] = &sendStream{c: c, id: id, wait: make(chan struct{})}
	}
	streams := maps.Clone(c.streams)
	tr.wg.Add(1)
	c.readLoop()

	credits, reset := map[uint32]int{}, map[uint32]bool{}
	malformed := false
	for r := data; len(r) >= 9; {
		typ, id, n := r[0], binary.LittleEndian.Uint32(r[1:]), binary.LittleEndian.Uint32(r[5:])
		r = r[9:]
		if typ == msgCredit && n == 4 {
			if len(r) < 4 {
				break
			}
			credits[id] += int(binary.LittleEndian.Uint32(r))
			r = r[4:]
		} else if typ == msgReset && n == 0 {
			reset[id] = true
		} else {
			malformed = true
			break
		}
	}
	if !conn.closed.Load() || c.err == nil {
		t.Fatal("reader returned without failing its connection")
	}
	if strings.Contains(c.err.Error(), "protocol error") != malformed {
		t.Fatalf("connection failed with %v; malformed input: %v", c.err, malformed)
	}
	for id, st := range streams {
		if st.credits != credits[id] || errors.Is(st.failed, ErrStreamReset) != reset[id] {
			t.Fatalf("stream %d: %d credits, failed %v; want %d credits, reset %v", id, st.credits, st.failed, credits[id], reset[id])
		}
	}
}

// FuzzDataPlane feeds arbitrary bytes to both readers of the data
// plane: the demultiplexer behind an accepted connection's magic, and
// the sender's CREDIT/RESET reader. Neither may panic, a malformed
// message drops the connection, no frame is delivered from one, and
// every frame leased along the way returns to the pool.
func FuzzDataPlane(f *testing.F) {
	frame := tuple.GetFrame()
	app := tuple.NewFrameAppender(frame)
	for i := 0; i < 20; i++ {
		app.Append(tuple.EncodeUint64(uint64(1000+3*i)), []byte("payload"))
	}
	raw := dataMsg(1, frame, tuple.CompressOff)
	delta := dataMsg(1, frame, tuple.CompressAuto)
	flate := dataMsg(1, frame, tuple.CompressFlate)
	sentinel := append(openMsg(1<<31, "sentinel", 1), dataMsg(1<<31, frame, tuple.CompressOff)...)
	tuple.PutFrame(frame)

	cat := func(msgs ...[]byte) []byte { return bytes.Join(msgs, nil) }
	open := openMsg(1, "job", 2)
	credit := binary.LittleEndian.AppendUint32(nil, 5)
	f.Add([]byte{})
	f.Add(cat(open, raw, delta, flate, wireMsg(msgEOS, 1, nil)))
	f.Add(cat(open, delta, wireMsg(msgErr, 1, []byte("boom")), raw))
	f.Add(cat(open, openMsg(2, "job", 2), raw, open, raw))
	f.Add(cat(open, raw[:len(raw)-3]))
	f.Add(cat(open, wireMsg(msgData, 1, cat([]byte{tuple.EncFlate}, []byte("not a deflate stream")))))
	badSlot := cat(raw)
	badSlot[len(badSlot)-1] ^= 0x40 // the last directory slot points past the payload
	f.Add(cat(open, badSlot))
	f.Add(cat(openMsg(1, "job", 0), raw))
	f.Add(cat(wireMsg(msgCredit, 1, credit), wireMsg(msgReset, 2, nil), wireMsg(msgCredit, 3, credit)))
	f.Add(cat(wireMsg(msgCredit, 1, credit), wireMsg(msgCredit, 1, cat(credit, []byte{1}))))
	f.Add(cat(wireMsg(msgReset, 2, []byte{0}), wireMsg(msgCredit, 1, credit)))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzDemux(t, data, sentinel)
		fuzzCredits(t, data)
	})
}

// FuzzControlPlane feeds arbitrary bytes to the control-frame reader.
// Every frame it decodes must re-encode to exactly the bytes it was read
// from, so the frames it accepted are a prefix of the input; it stops at
// the first error, which is a clean io.EOF only when the whole input
// was consumed at a frame boundary.
func FuzzControlPlane(f *testing.F) {
	frame := func(env Envelope) []byte {
		b, err := frameOf(env)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	req := frame(Envelope{ID: 1, Method: "register", Data: json.RawMessage(`{"dataAddr":"a","nodes":2}`)})
	imgs := frame(Envelope{ID: 7, Data: json.RawMessage(`{"parts":[{"part":0},{"part":1}]}`),
		Blobs: [][]byte{[]byte("vertex0"), nil, []byte("vertex1"), []byte("msg1")}})
	fail := frame(Envelope{ID: 9, Error: "core: no retained result for job: pr@j1", Code: 1})
	f.Add([]byte{})
	f.Add(bytes.Join([][]byte{req, imgs, fail}, nil))
	f.Add(imgs[:len(imgs)-2])
	f.Add(append(req[:len(req):len(req)], 0xff, 0xff, 0xff, 0x7f))
	flagged := append([]byte(nil), fail...)
	flagged[12] |= 2 // an unknown flag bit
	f.Add(flagged)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var again bytes.Buffer
		for {
			env, err := readFrame(r)
			if err != nil {
				if err == io.EOF && again.Len() != len(data) {
					t.Fatalf("clean EOF after %d of %d bytes", again.Len(), len(data))
				}
				break
			}
			b, err := frameOf(env)
			if err != nil {
				t.Fatalf("decoded frame %+v does not re-encode: %v", env, err)
			}
			again.Write(b)
			if !bytes.HasPrefix(data, again.Bytes()) {
				t.Fatalf("frame %+v re-encodes to other bytes than it was read from", env)
			}
		}
	})
}
