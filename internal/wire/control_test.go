package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// blobMsg is a message with one bulk field on attachments.
type blobMsg struct {
	Name string `json:"name"`
	Data []byte `json:"-"`
}

func (m *blobMsg) Attachments() []*[]byte { return []*[]byte{&m.Data} }

var errGone = Sentinel(200, "test: gone")

// controlPair connects a Caller to a Serve loop running handler.
func controlPair(t *testing.T, handler func(req *Envelope) (any, error)) *Caller {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if cc, err := AcceptControl(conn); err == nil {
			Serve(cc, handler)
		}
		conn.Close()
	}()
	cc, err := DialControl(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	k := NewCaller(cc)
	k.Start()
	return k
}

// TestControlCall: bulk fields cross as attachments both ways, a
// sentinel keeps its identity, and a plain error keeps only its text.
func TestControlCall(t *testing.T) {
	k := controlPair(t, func(req *Envelope) (any, error) {
		var in blobMsg
		if err := req.Decode(&in); err != nil {
			return nil, err
		}
		switch req.Method {
		case "echo":
			return &blobMsg{Name: in.Name + "!", Data: append(in.Data, '.')}, nil
		case "gone":
			return nil, fmt.Errorf("%w: %s", errGone, in.Name)
		}
		return nil, errors.New("no such method")
	})
	ctx := context.Background()
	big := bytes.Repeat([]byte{0, 1, 2, '\n'}, 300_000)
	var out blobMsg
	if err := k.Call(ctx, "echo", &blobMsg{Name: "x", Data: big}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "x!" || !bytes.Equal(out.Data, append(big, '.')) {
		t.Fatalf("echo returned %q with %d bytes", out.Name, len(out.Data))
	}
	err := k.Call(ctx, "gone", &blobMsg{Name: "v1"}, nil)
	if !errors.Is(err, errGone) || err.Error() != "test: gone: v1" {
		t.Fatalf("sentinel arrived as %v", err)
	}
	err = k.Call(ctx, "what", &blobMsg{}, nil)
	if err == nil || errors.Is(err, errGone) || err.Error() != "no such method" {
		t.Fatalf("plain error arrived as %v", err)
	}
	// Attachments for a message that takes none are an error, not a
	// silent drop.
	var plain struct{ Name string }
	if err := k.Call(ctx, "echo", &blobMsg{Name: "x"}, &plain); err == nil {
		t.Fatal("a reply's attachments were dropped silently")
	}

	// Concurrent calls share the connection: every frame goes out whole
	// and every reply reaches its own caller.
	errs := make(chan error, 8)
	for i := range 8 {
		go func() {
			name := strconv.Itoa(i)
			data := bytes.Repeat([]byte{byte(i)}, 50_000*(i+1))
			var out blobMsg
			err := k.Call(ctx, "echo", &blobMsg{Name: name, Data: data}, &out)
			if err == nil && (out.Name != name+"!" || !bytes.Equal(out.Data, append(data, '.'))) {
				err = fmt.Errorf("call %d got reply %q with %d bytes", i, out.Name, len(out.Data))
			}
			errs <- err
		}()
	}
	for range 8 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestControlRefusesOldPreamble: a peer speaking the newline-delimited
// JSON control plane (PGXC1) is refused at connect.
func TestControlRefusesOldPreamble(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write([]byte("PGXC1\n"))
	if _, err := AcceptControl(b); err == nil {
		t.Fatal("a PGXC1 peer was accepted")
	}
}

// frameOf is env's whole frame: the head, then the attachments.
func frameOf(env Envelope) ([]byte, error) {
	frame, err := appendHead(nil, &env)
	for _, b := range env.Blobs {
		frame = append(frame, b...)
	}
	return frame, err
}

func readFrom(b []byte) (Envelope, error) { return readFrame(bufio.NewReader(bytes.NewReader(b))) }

// TestControlFrameBounds: a cut frame is io.ErrUnexpectedEOF, a length
// past the cap is refused, and lengths a peer claims but never sends
// cost no memory.
func TestControlFrameBounds(t *testing.T) {
	frame, err := frameOf(Envelope{ID: 3, Method: "m", Data: json.RawMessage(`{}`), Blobs: [][]byte{[]byte("abc"), nil}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readFrom(nil); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	for cut := 1; cut < len(frame); cut++ {
		if _, err := readFrom(frame[:cut]); err != io.ErrUnexpectedEOF {
			t.Fatalf("frame cut at %d of %d: %v, want io.ErrUnexpectedEOF", cut, len(frame), err)
		}
	}
	over := binary.LittleEndian.AppendUint32(nil, maxControlFrame+1)
	if _, err := readFrom(append(over, frame[4:]...)); err == nil || err == io.ErrUnexpectedEOF {
		t.Fatalf("a frame over the cap: %v", err)
	}

	// One 900 MiB attachment claimed in a 29-byte input.
	const claim = 900 << 20
	liar := binary.LittleEndian.AppendUint32(nil, frameFixed+4+claim)
	liar = append(liar, make([]byte, 8+3)...)
	liar = binary.LittleEndian.AppendUint32(liar, 0)
	liar = binary.LittleEndian.AppendUint16(liar, 1)
	liar = binary.LittleEndian.AppendUint32(liar, claim)
	liar = append(liar, "some"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = readFrom(liar)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("claimed attachment: %v, want io.ErrUnexpectedEOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("a %d-byte input claiming %d bytes allocated %d", len(liar), claim, n)
	}
}

// TestControlServeSurvivesBadAttachments: a request whose attachment
// count its message does not expect is answered with an error.
func TestControlServeSurvivesBadAttachments(t *testing.T) {
	k := controlPair(t, func(req *Envelope) (any, error) {
		var in blobMsg
		return nil, req.Decode(&in)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := k.Call(ctx, "m", &twoBlobs{}, nil); err == nil {
		t.Fatal("two attachments for a one-attachment message were accepted")
	}
	if err := k.Call(ctx, "m", &blobMsg{}, nil); err != nil {
		t.Fatalf("the connection did not survive: %v", err)
	}
}

type twoBlobs struct{ a, b []byte }

func (m *twoBlobs) Attachments() []*[]byte { return []*[]byte{&m.a, &m.b} }
