package core

import (
	"bytes"
	"context"
	"testing"

	"pregelix/internal/graphgen"
	"pregelix/internal/tuple"
	"pregelix/pregel"
	"pregelix/pregel/algorithms"
)

// imageFixture is a loaded single-process run one superstep in — so its
// partitions hold vertices and pending messages — whose partition 0 the
// image tests reinstall over and over.
type imageFixture struct {
	rs *runState
}

func newImageFixture(tb testing.TB) *imageFixture {
	tb.Helper()
	rt, err := NewRuntime(Options{BaseDir: tb.TempDir(), Nodes: 2, PartitionsPerNode: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rt.Close() })
	var buf bytes.Buffer
	if _, err := graphgen.WriteText(&buf, graphgen.Webmap(40, 3, 5)); err != nil {
		tb.Fatal(err)
	}
	if err := rt.DFS.WriteFile("/in/g", buf.Bytes()); err != nil {
		tb.Fatal(err)
	}
	job := algorithms.NewPageRankJob("img", "/in/g", "", 3)
	rs := rt.newRunState(job, rt.opts.Exec, tenancy{})
	tb.Cleanup(rs.cleanup)
	ctx := context.Background()
	if err := rs.load(ctx); err != nil {
		tb.Fatal(err)
	}
	gs := seedGS(0, rs.partCounts())
	gs.LiveVertices = gs.NumVertices
	if _, err := rs.runSuperstep(ctx, &superstepMsg{SS: 1, GS: gs, Join: pregel.FullOuterJoin}); err != nil {
		tb.Fatal(err)
	}
	if rs.parts[0].msgs == 0 {
		tb.Fatal("fixture partition has no pending messages")
	}
	return &imageFixture{rs: rs}
}

// install reinstalls partition 0 from the given streams, then re-hashes
// the same image the way a split would, and checks that neither strands
// a pooled frame whatever the outcome.
func (fx *imageFixture) install(tb testing.TB, vertex, msg []byte) (installErr, rehashErr error) {
	tb.Helper()
	leases := tuple.LeasedFrames()
	pd := &ckptPartData{Part: 0, Vertex: vertex, Msg: msg}
	ps := fx.rs.parts[0]
	fx.rs.dropOnePartition(ps)
	installErr = fx.rs.installImage(ps, pd)
	_, rehashErr = rehashPartitionImage(pd, splitRec{Parent: 0, First: 2, Children: 3}, tuple.CompressAuto)
	if now := tuple.LeasedFrames(); now != leases {
		tb.Fatalf("%d frames leased after the image was read, %d before (install: %v, re-hash: %v)", now, leases, installErr, rehashErr)
	}
	return installErr, rehashErr
}

// rawImage packs the given records, each a list of fields, into one raw
// frame image: structurally valid whatever the records' shape.
func rawImage(records ...[][]byte) []byte {
	fr := tuple.GetFrame()
	defer tuple.PutFrame(fr)
	app := tuple.NewFrameAppender(fr)
	for _, rec := range records {
		app.Append(rec...)
	}
	var buf bytes.Buffer
	tuple.WriteFrame(&buf, fr)
	return buf.Bytes()
}

var (
	// oneFieldImage decodes and validates as a frame, but its record has
	// no value field; shortKeyImage's key is not a vid.
	oneFieldImage = rawImage([][]byte{tuple.EncodeUint64(7)})
	shortKeyImage = rawImage([][]byte{{1, 2, 3}, []byte("value")})
)

// TestMalformedImageIsAnError: an image is read after it crossed a
// process or disk boundary. A frame that decodes but does not hold
// (vid, value) records must come back as an error from the install path
// and from the coordinator's re-hash — both used to index it blindly and
// panic, the second one inside the control process.
func TestMalformedImageIsAnError(t *testing.T) {
	fx := newImageFixture(t)
	good, err := snapshotPartition(fx.rs.parts[0], tuple.CompressOff)
	if err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string][]byte{"one-field record": oneFieldImage, "3-byte key": shortKeyImage} {
		for _, stream := range []string{"vertex", "msg"} {
			vertex, msg := img, good.Msg
			if stream == "msg" {
				vertex, msg = good.Vertex, img
			}
			installErr, rehashErr := fx.install(t, vertex, msg)
			if installErr == nil || rehashErr == nil {
				t.Errorf("%s in the %s stream: install %v, re-hash %v, want an error from both", name, stream, installErr, rehashErr)
			}
		}
	}
	// The fixture survives refusing them: a good image still installs.
	if installErr, rehashErr := fx.install(t, good.Vertex, good.Msg); installErr != nil || rehashErr != nil {
		t.Fatalf("good image after the bad ones: install %v, re-hash %v", installErr, rehashErr)
	}
}

// FuzzInstallImage feeds arbitrary bytes to the one reader of partition
// images, as both streams of an image being installed and re-hashed:
// every outcome is success or an error, never a panic and never a
// stranded frame. Seeds: a real raw and a real compressed snapshot
// (whole and truncated) and the two malformed-but-decodable records.
func FuzzInstallImage(f *testing.F) {
	fx := newImageFixture(f)
	for _, mode := range []tuple.CompressMode{tuple.CompressOff, tuple.CompressAuto} {
		pd, err := snapshotPartition(fx.rs.parts[0], mode)
		if err != nil {
			f.Fatal(err)
		}
		if installErr, rehashErr := fx.install(f, pd.Vertex, pd.Msg); installErr != nil || rehashErr != nil {
			f.Fatalf("real %v snapshot: install %v, re-hash %v", mode, installErr, rehashErr)
		}
		f.Add(pd.Vertex, pd.Msg)
		f.Add(pd.Vertex[:len(pd.Vertex)/2], pd.Msg[:len(pd.Msg)-3])
	}
	f.Add(oneFieldImage, []byte(nil))
	f.Add([]byte(nil), shortKeyImage)
	f.Fuzz(func(t *testing.T, vertex, msg []byte) {
		fx.install(t, vertex, msg)
	})
}
