package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"

	"pregelix/internal/dfs"
	"pregelix/internal/hyracks"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
)

// Checkpointing (Section 5.5): at user-selected superstep boundaries the
// runtime snapshots Vertex and Msg (per partition) to the DFS.
// Checkpointing Msg ensures user programs need not be aware of failures.
// GS rides in the checkpoint manifest — its one durable copy, which is
// what recovery rewinds the driver's global state from. The Vid index
// is not checkpointed: it is derivable from the halt flags in the
// Vertex snapshot and is rebuilt during recovery.
//
// # Checkpoint layout and manifest format
//
// A checkpoint of job J at superstep N is a DFS directory
//
//	/pregelix/J/ckpt/ssN/
//	    vertex-p0 … vertex-p(P-1)   vertex partition snapshots
//	    msg-p0    … msg-p(P-1)      pending combined-message snapshots
//	    manifest.json               the commit record (written last)
//
// Every data file is a frame stream (tuple.FrameStreamWriter): with
// compression off that is a plain concatenation of packed frame images
// (tuple.WriteFrame bytes), the same format the wire transport ships
// and run files store, so snapshots are produced and consumed with zero
// re-serialization; with compression on the stream carries a "PGXC"
// magic followed by per-frame encoded bodies (the same frame codec that
// tags every wire DATA frame). Readers sniff the magic, so checkpoints
// written by compressing and non-compressing processes are mutually
// restorable. The vertex snapshot is vid-sorted (it is written from an
// in-order index scan), which lets recovery bulk-load the rebuilt
// index.
//
// The manifest is the unit of atomicity. It records the superstep, the
// partition table (count, base count, splits), the global state, and
// per partition: the restored statistics counters plus the DFS paths of
// its vertex/msg images (the partition→file map).
//
// # Commit protocol
//
// Both engines checkpoint through one writer (writeCheckpoint) into a
// dfs.FileSystem — the runtime's own, or the coordinator's replicated
// checkpoint store — and restore through one reader (restoreCheckpoint).
// An engine supplies only how images reach the writer (a runtime streams
// its partitions' snapshots; the coordinator forwards the images every
// worker returned for partition.send {all}) and how the reader's streams
// reach the partitions (reloadPartitionFrom in process; partition.recv
// {reset} on a cluster). The writer writes every partition image first
// and the manifest last, staged as manifest.json.tmp and renamed into
// place (dfsStore.Put) only when all data is durable — on a cluster,
// only after every worker has answered. The reader takes the valid
// manifest with the highest superstep; data files without a manifest
// are invisible garbage, so a crash anywhere before the rename leaves
// the previous committed checkpoint (and therefore recoverability)
// fully intact. dfs.Rename swaps only namespace metadata, making the
// commit a single atomic step.

type checkpointManifest struct {
	Superstep  int64 `json:"superstep"`
	Partitions int   `json:"partitions"`
	GS         globalState
	PartStats  []partStat `json:"partStats"`
	// BaseParts/Splits journal the hot-partition split table committed
	// by the superstep the checkpoint covers (split.go): recovery — and
	// a durable coordinator's restart — must rebuild the same partition
	// table and routing function. Splits is nil on unsplit checkpoints;
	// BaseParts may be zero on one, which Partitions then describes.
	BaseParts int        `json:"baseParts,omitempty"`
	Splits    []splitRec `json:"splits,omitempty"`
}

type partStat struct {
	NumVertices  int64 `json:"numVertices"`
	NumEdges     int64 `json:"numEdges"`
	LiveVertices int64 `json:"liveVertices"`
	Msgs         int64 `json:"msgs"`
	// VertexFile/MsgFile are the checkpoint-store paths of this
	// partition's snapshot images (the manifest's partition→file map).
	VertexFile string `json:"vertexFile,omitempty"`
	MsgFile    string `json:"msgFile,omitempty"`
}

// partStatOf snapshots one partition's restorable counters.
func partStatOf(ps *partitionState) partStat {
	return partStat{
		NumVertices:  ps.numVertices,
		NumEdges:     ps.numEdges,
		LiveVertices: ps.liveVertices,
		Msgs:         ps.msgs,
	}
}

// ckptRoot is the directory a job's checkpoints live under — in the
// runtime's DFS, or in the controller's replicated store — and ckptPath
// the checkpoint of superstep ss within it.
func ckptRoot(job string) string { return "/pregelix/" + job + "/ckpt/" }

func ckptPath(job string, ss int64) string {
	return fmt.Sprintf("%sss%d", ckptRoot(job), ss)
}

// addVertex recounts one encoded vertex record: the edge count straight
// from the encoded layout, liveness from the halt flag, no codec needed.
func (st *partStat) addVertex(rec []byte) {
	st.NumVertices++
	st.NumEdges += int64(edgeCountOf(rec))
	if isLiveVertexRecord(rec) {
		st.LiveVertices++
	}
}

// imageWriter packs (key, value) records into one image stream — a
// frame stream in the given compression mode, one bulk write per full
// frame. Every image this package produces (checkpoint, migration,
// sealed-version clone, split child) is written through it.
type imageWriter struct {
	sw  *tuple.FrameStreamWriter
	fr  *tuple.Frame
	app *tuple.FrameAppender
}

func newImageWriter(w io.Writer, mode tuple.CompressMode) *imageWriter {
	fr := tuple.GetFrame()
	return &imageWriter{sw: tuple.NewFrameStreamWriter(w, mode), fr: fr, app: tuple.NewFrameAppender(fr)}
}

func (iw *imageWriter) add(k, v []byte) error {
	if !iw.app.Append(k, v) {
		if err := iw.sw.WriteFrame(iw.fr); err != nil {
			return err
		}
		iw.fr.Reset()
		iw.app.Append(k, v) // an empty frame grows to fit any record
	}
	return nil
}

// flush writes the last, partial frame; release returns the writer's
// frame to the pool on every path.
func (iw *imageWriter) flush() error {
	if iw.fr.Len() == 0 {
		return nil
	}
	return iw.sw.WriteFrame(iw.fr)
}

func (iw *imageWriter) release() { tuple.PutFrame(iw.fr) }

// writeVertexSnapshot streams a vertex index to w as an image stream:
// the index is scanned in key order, so the image is vid-sorted and a
// reload can bulk-load it. The returned statistics are recounted from
// the records, for callers imaging an index that kept no counters.
func writeVertexSnapshot(w io.Writer, idx storage.Index, mode tuple.CompressMode) (partStat, error) {
	var st partStat
	cur, err := idx.ScanFrom(nil)
	if err != nil {
		return st, err
	}
	defer cur.Close()
	iw := newImageWriter(w, mode)
	defer iw.release()
	for {
		k, v, ok := cur.NextView() // iw.add copies into its frame at once
		if !ok {
			break
		}
		st.addVertex(v)
		if err := iw.add(k, v); err != nil {
			return st, err
		}
	}
	if err := cur.Err(); err != nil {
		return st, err
	}
	return st, iw.flush()
}

// eachImageFrame reads an image stream (raw or compressed, sniffed)
// frame by frame. An image crosses a process or disk boundary before it
// is read, and every consumer indexes its records as (8-byte vid, value)
// pairs, so that shape is checked here, once: a frame that decodes but
// holds anything else is an error, never a panic further in.
func eachImageFrame(r io.Reader, visit func(fr *tuple.Frame) error) error {
	sr := tuple.NewFrameStreamReader(r)
	fr := tuple.GetFrame()
	defer tuple.PutFrame(fr)
	for {
		if err := sr.ReadFrame(fr); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
		for i := 0; i < fr.Len(); i++ {
			if t := fr.Tuple(i); t.FieldCount() != 2 || len(t.Field(0)) != 8 {
				return fmt.Errorf("core: image record %d is not a (vid, value) pair", i)
			}
		}
		if err := visit(fr); err != nil {
			return err
		}
	}
}

// writeMsgSnapshot ships the partition's combined-message run to w.
// With compression off it is copied byte-for-byte (it is already a
// stream of frame images, on local disk or in memory); otherwise each
// frame is read back and re-encoded through the stream codec. An empty
// partition writes nothing.
func writeMsgSnapshot(w io.Writer, ps *partitionState, mode tuple.CompressMode) error {
	if ps.msg == nil {
		return nil
	}
	mf, err := ps.msg.Image()
	if err != nil {
		return err
	}
	defer mf.Close()
	if mode == tuple.CompressOff {
		_, err = io.Copy(w, mf)
		return err
	}
	sw := tuple.NewFrameStreamWriter(w, mode)
	br := bufio.NewReaderSize(mf, 1<<16)
	fr := tuple.GetFrame()
	defer tuple.PutFrame(fr)
	for {
		if err := tuple.ReadFrameInto(br, fr); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if err := sw.WriteFrame(fr); err != nil {
			return err
		}
	}
}

// imageIndex images a bare vertex index — a sealed result's partition,
// which kept no counters and has no pending messages — in the one
// partition-image format, with the statistics recounted from the
// records.
func imageIndex(idx storage.Index, part int, mode tuple.CompressMode) (ckptPartData, error) {
	var buf bytes.Buffer
	st, err := writeVertexSnapshot(&buf, idx, mode)
	return ckptPartData{Part: part, Vertex: buf.Bytes(), Stats: st}, err
}

// snapshotPartition images one live partition: the vertex relation and
// the pending combined messages as image streams (compressed per the
// process's policy; readers sniff the format), plus the partition's own
// counters. Checkpoints, migrations, splits and delta clones all move
// this one format, which is what lets installImage serve them all.
func snapshotPartition(ps *partitionState, mode tuple.CompressMode) (ckptPartData, error) {
	pd, err := imageIndex(ps.vertexIdx, ps.idx, mode)
	if err != nil {
		return pd, err
	}
	var mbuf bytes.Buffer
	if err := writeMsgSnapshot(&mbuf, ps, mode); err != nil {
		return pd, fmt.Errorf("msgs: %w", err)
	}
	pd.Msg, pd.Stats = mbuf.Bytes(), partStatOf(ps)
	return pd, nil
}

// installImage rebuilds a partition from an image: the one reload path
// of checkpoint restores, migrations, split children and delta clones.
func (rs *runState) installImage(ps *partitionState, pd *ckptPartData) error {
	return rs.reloadPartitionFrom(ps, pd.Stats, bytes.NewReader(pd.Vertex), bytes.NewReader(pd.Msg))
}

// writeCheckpoint is the one checkpoint writer, for both engines. It
// streams every partition of table into run's checkpoint of superstep ss
// in fs — image writes partition p's vertex and msg images and returns
// its counters — and then commits the manifest carrying run.gs, the
// table and the partition→file map (see the commit protocol above). A
// runtime's image scans its own partitions; the coordinator's forwards
// what partition.send {all} brought back.
func writeCheckpoint(ctx context.Context, fs *dfs.FileSystem, run *jobRun, ss int64, table partTable,
	image func(p int, vertex, msg io.Writer) (partStat, error)) error {
	dir := ckptPath(run.name, ss)
	m := checkpointManifest{Superstep: ss, Partitions: table.NumParts, GS: run.gs,
		BaseParts: table.BaseParts, Splits: table.Splits, PartStats: make([]partStat, table.NumParts)}
	for p := range m.PartStats {
		if err := ctx.Err(); err != nil {
			return err
		}
		vf, mf := fmt.Sprintf("%s/vertex-p%d", dir, p), fmt.Sprintf("%s/msg-p%d", dir, p)
		vw, err := fs.Create(vf)
		if err != nil {
			return err
		}
		mw, err := fs.Create(mf)
		if err != nil {
			return err
		}
		st, err := image(p, vw, mw)
		if err == nil {
			err = errors.Join(vw.Close(), mw.Close())
		}
		if err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
		st.VertexFile, st.MsgFile = vf, mf
		m.PartStats[p] = st
	}
	return commitManifest(fs, dir, &m)
}

// commitManifest atomically publishes a checkpoint through the DFS's
// staged write: the manifest lands under a temporary name and is renamed
// into place, so a crash before the rename leaves the previous
// checkpoint untouched.
func commitManifest(fs *dfs.FileSystem, dir string, m *checkpointManifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return dfsStore{fs: fs}.Put(dir+"/manifest.json", data)
}

// removeJobFiles reclaims everything a finished job left under its DFS
// prefix: checkpoint images and manifests.
func removeJobFiles(fs *dfs.FileSystem, job string) {
	for _, path := range fs.List("/pregelix/" + job + "/") {
		fs.Remove(path)
	}
}

// valid reports whether the manifest describes a partition table
// recovery can rebuild: a statistics entry per partition, and a split
// list that grows the base table to exactly Partitions, every split
// appending at least two children past a parent of the table as it
// stood — which is what makes routeVertex terminate.
func (m *checkpointManifest) valid() bool {
	if m.Partitions <= 0 || len(m.PartStats) != m.Partitions {
		return false
	}
	size := partTable{NumParts: m.Partitions, BaseParts: m.BaseParts}.base()
	for _, s := range m.Splits {
		if s.Children < 2 || s.Parent < 0 || s.Parent >= s.First || s.First != size {
			return false
		}
		size += s.Children
	}
	return size == m.Partitions
}

// latestManifest scans a checkpoint tree for the committed manifest with
// the highest superstep (nil if none is usable). Staged .tmp files —
// checkpoints that never committed — are not manifests, and unreadable
// or invalid manifests are skipped, so recovery falls back to an older
// intact checkpoint.
func latestManifest(fs *dfs.FileSystem, prefix string) *checkpointManifest {
	var best *checkpointManifest
	for _, path := range fs.List(prefix) {
		if filepath.Base(path) != "manifest.json" {
			continue
		}
		data, err := fs.ReadFile(path)
		if err != nil {
			continue // replicas may be gone; skip unreadable checkpoints
		}
		var m checkpointManifest
		if err := json.Unmarshal(data, &m); err != nil || !m.valid() {
			continue
		}
		if best == nil || m.Superstep > best.Superstep {
			best = &m
		}
	}
	return best
}

// errNoCheckpoint is the one refusal of a restore, a failed run's and a
// resumed one's alike.
var errNoCheckpoint = errors.New("job has no usable checkpoint")

// restoreCheckpoint is the one checkpoint reader, for both engines. It
// finds run's latest usable checkpoint in fs; with none — or when the job
// takes none, so whatever its name holds is an earlier run's — it
// refuses before repair touches anything. Otherwise it runs repair, if
// any, and hands install each partition's two image streams and
// counters, in partition order. The caller rewinds the run to the
// manifest it returns.
func restoreCheckpoint(ctx context.Context, fs *dfs.FileSystem, run *jobRun, repair func(*checkpointManifest) error,
	install func(p int, st partStat, vertex, msg io.Reader) error) (*checkpointManifest, error) {
	var m *checkpointManifest
	if run.job.CheckpointEvery > 0 {
		m = latestManifest(fs, ckptRoot(run.name))
	}
	if m == nil {
		return nil, fmt.Errorf("core: %s: %w", run.name, errNoCheckpoint)
	}
	if repair != nil {
		if err := repair(m); err != nil {
			return nil, err
		}
	}
	for p, st := range m.PartStats {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vr, err := fs.Open(st.VertexFile)
		if err != nil {
			return nil, err
		}
		mr, err := fs.Open(st.MsgFile)
		if err != nil {
			return nil, err
		}
		if err := install(p, st, vr, mr); err != nil {
			return nil, fmt.Errorf("core: restoring partition %d: %w", p, err)
		}
	}
	return m, nil
}

// reassign is the in-process repair ahead of a restore of nparts
// partitions: blacklist the failed machine, forget every partition's
// state and the superstep plan placed on the old machines, and place the
// partitions over the survivors.
func (rs *runState) reassign(failed hyracks.NodeID, nparts int) error {
	if nparts != len(rs.parts) {
		return fmt.Errorf("core: the checkpoint has %d partitions, the run %d", nparts, len(rs.parts))
	}
	rs.rt.Cluster.Blacklist(failed)
	if len(rs.rt.Cluster.LiveNodes()) == 0 {
		return fmt.Errorf("core: no live nodes remain")
	}
	rs.closePlan()
	rs.dropPartitionState()
	for i, node := range rs.assignPartitions(len(rs.parts)) {
		rs.parts[i].node = node
	}
	return nil
}

// dropPartitionState forgets every partition's live state ahead of a
// checkpoint reload: indexes on reachable machines are dropped, handles
// on unreachable ones simply forgotten, and pending next-superstep
// state from the failed attempt is discarded.
func (rs *runState) dropPartitionState() {
	for _, ps := range rs.parts {
		if ps.node.Failed() || rs.isBlacklisted(ps.node.ID) {
			// Unreachable; just forget the handles.
			ps.vertexIdx, ps.vid, ps.nextVid = nil, nil, nil
			ps.msg, ps.nextMsg = nil, nil
			continue
		}
		rs.dropOnePartition(ps)
	}
}

// dropOnePartition releases one partition's local state: its vertex and
// Vid indexes, its pending-message runs, and the message counters.
// Used when a partition migrates away (the new owner holds the state
// now) and before reinstalling a migrated or restored image.
func (rs *runState) dropOnePartition(ps *partitionState) {
	if ps.vertexIdx != nil {
		ps.vertexIdx.Drop()
		ps.vertexIdx = nil
	}
	dropRelations(ps.msg, ps.vid)
	dropRelations(ps.nextMsg, ps.nextVid)
	ps.msg, ps.vid, ps.nextMsg, ps.nextVid = nil, nil, nil, nil
	ps.msgs, ps.nextMsgs = 0, 0
}

func (rs *runState) isBlacklisted(id hyracks.NodeID) bool {
	for _, n := range rs.rt.Cluster.LiveNodes() {
		if n.ID == id {
			return false
		}
	}
	return true
}

// reloadPartitionFrom rebuilds one partition's Vertex index, Msg run
// and Vid index on its (possibly new) node from checkpoint snapshot
// streams. Each stream is format-sniffed, so compressed and raw images
// restore alike regardless of which process wrote them. The partition
// counters are restored from the manifest's partStat. Whatever a refused
// image got as far as building is in ps, for dropOnePartition to reclaim.
func (rs *runState) reloadPartitionFrom(ps *partitionState, st partStat, vertexR, msgR io.Reader) error {
	node := ps.node
	ps.numVertices, ps.numEdges, ps.liveVertices = st.NumVertices, st.NumEdges, st.LiveVertices
	ps.nextMsg, ps.nextMsgs, ps.nextVid = nil, 0, nil

	vids := &vidBuilder{rs: rs, ps: ps}
	defer vids.abort()

	bt, err := storage.CreateBTree(node.BufferCache,
		rs.tempPath(node, fmt.Sprintf("vertex-rec-p%d", ps.idx)))
	if err != nil {
		return err
	}
	loader, err := bt.NewBulkLoader(0.9)
	if err != nil {
		return err
	}
	ps.vertexIdx = storage.AsIndex(bt)

	// Vertex snapshot: a frame stream (raw or compressed), vid-sorted.
	if err := eachImageFrame(vertexR, func(fr *tuple.Frame) error {
		for i := 0; i < fr.Len(); i++ {
			t := fr.Tuple(i)
			k, v := t.Field(0), t.Field(1)
			if err := loader.Add(k, v); err != nil {
				return err
			}
			if isLiveVertexRecord(v) {
				if err := vids.add(k); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := loader.Finish(); err != nil {
		return err
	}
	if ps.vid, err = vids.finish(); err != nil {
		return err
	}

	// Msg run: same frame-image format; repack frame by frame.
	rf := storage.NewRunFile(rs.tempPath(node, "msg-rec-p"+strconv.Itoa(ps.idx)))
	if err = eachImageFrame(msgR, rf.AppendFrame); err == nil {
		err = rf.CloseWrite()
	}
	if err != nil || rf.Count() == 0 {
		rf.Delete()
		rf = nil
	}
	ps.msg, ps.msgs = rf, st.Msgs
	return err
}

// isLiveVertexRecord reads the halt flag from an encoded vertex record.
func isLiveVertexRecord(rec []byte) bool {
	return len(rec) > 0 && rec[0] == 0
}
