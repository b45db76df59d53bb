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
	"pregelix/pregel"
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
// magic followed by per-frame encoded bodies (the same frame codec the
// wire DATA path negotiates). Readers sniff the magic, so checkpoints
// written by compressing and non-compressing processes are mutually
// restorable. The vertex snapshot is vid-sorted (it is written from an
// in-order index scan), which lets recovery bulk-load the rebuilt
// index.
//
// The manifest is the unit of atomicity. It records the superstep, the
// partition count, the global state, and per partition: the restored
// statistics counters plus the DFS paths of its vertex/msg images (the
// partition→file map). In cluster mode the same manifest format lives
// in the coordinator's replicated checkpoint store.
//
// # Commit protocol
//
// A checkpoint is committed by writing every partition image first and
// the manifest last — staged as manifest.json.tmp and renamed into
// place only when all data is durable (in cluster mode: only after
// every worker has acked its snapshot RPC). Recovery scans for the
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
	// table and routing function. Zero/nil on unsplit checkpoints, where
	// Partitions is the whole table.
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

// nameFiles fills in the manifest's partition→file map entry: the paths
// of partition part's two images within checkpoint directory dir.
func (st *partStat) nameFiles(dir string, part int) {
	st.VertexFile = fmt.Sprintf("%s/vertex-p%d", dir, part)
	st.MsgFile = fmt.Sprintf("%s/msg-p%d", dir, part)
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

// checkpoint writes the superstep's Vertex and Msg state to the DFS and
// commits the manifest, which carries the driver's global state gs (see
// the commit protocol above).
func (rs *runState) checkpoint(ctx context.Context, ss int64, gs globalState) error {
	dir := ckptPath(rs.job.Name, ss)
	m := checkpointManifest{Superstep: ss, Partitions: len(rs.parts), GS: gs}
	for _, ps := range rs.parts {
		if err := ctx.Err(); err != nil {
			return err
		}
		st := partStatOf(ps)
		st.nameFiles(dir, ps.idx)

		w, err := rs.rt.DFS.Create(st.VertexFile)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(w, 1<<16)
		if _, err := writeVertexSnapshot(bw, ps.vertexIdx, rs.rt.opts.Compress); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}

		mw, err := rs.rt.DFS.Create(st.MsgFile)
		if err != nil {
			return err
		}
		if err := writeMsgSnapshot(mw, ps, rs.rt.opts.Compress); err != nil {
			return err
		}
		if err := mw.Close(); err != nil {
			return err
		}
		m.PartStats = append(m.PartStats, st)
	}
	return commitManifest(rs.rt.DFS, dir, &m)
}

// manifestWriter is the slice of dfs.FileSystem the commit needs; the
// coordinator's checkpoint store satisfies it too.
type manifestWriter interface {
	WriteFile(path string, data []byte) error
	Rename(oldPath, newPath string) error
}

// commitManifest atomically publishes a checkpoint: the manifest is
// staged under a temporary name and renamed into place, so a crash
// before the rename leaves the previous checkpoint untouched.
func commitManifest(fs manifestWriter, dir string, m *checkpointManifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	staged := dir + "/manifest.json.tmp"
	if err := fs.WriteFile(staged, data); err != nil {
		return err
	}
	return fs.Rename(staged, dir+"/manifest.json")
}

// removeJobFiles reclaims everything a finished job left under its DFS
// prefix: checkpoint images and manifests.
func removeJobFiles(fs *dfs.FileSystem, job string) {
	for _, path := range fs.List("/pregelix/" + job + "/") {
		fs.Remove(path)
	}
}

// manifestReader is the slice of dfs.FileSystem manifest discovery
// needs.
type manifestReader interface {
	List(prefix string) []string
	ReadFile(path string) ([]byte, error)
}

// latestManifest scans a checkpoint tree for the committed manifest with
// the highest superstep (nil if none is readable). Staged .tmp files —
// checkpoints that never committed — are not manifests and are skipped.
func latestManifest(fs manifestReader, prefix string) *checkpointManifest {
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
		if err := json.Unmarshal(data, &m); err != nil {
			continue
		}
		if best == nil || m.Superstep > best.Superstep {
			best = &m
		}
	}
	return best
}

// recover handles a node failure (Section 5.5): blacklist the machine,
// select a failure-free placement for its partitions, and reload Vertex,
// Msg, and (when needed) Vid from the latest checkpoint, whose manifest
// it returns for the driver to rewind to.
func (rs *runState) recover(ctx context.Context, nf *hyracks.NodeFailure) (*checkpointManifest, error) {
	rs.rt.Cluster.Blacklist(nf.Node)
	rs.rt.DFS.SetNodeDown(string(nf.Node), true)
	if len(rs.rt.Cluster.LiveNodes()) == 0 {
		return nil, fmt.Errorf("core: no live nodes remain")
	}
	m := latestManifest(rs.rt.DFS, ckptRoot(rs.job.Name))
	if m == nil {
		return nil, fmt.Errorf("core: no usable checkpoint for job %s", rs.job.Name)
	}

	// Drop current partition state (files on the failed machine are
	// unreachable; files on live machines are stale), and the superstep
	// plan placed on the old machines.
	rs.closePlan()
	rs.dropPartitionState()

	// Reassign all partitions over the surviving machines and reload.
	nodes := rs.assignPartitions(len(rs.parts))
	for i, ps := range rs.parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ps.node = nodes[i]
		if err := rs.reloadPartition(ps, m); err != nil {
			return nil, err
		}
	}
	return m, nil
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

// reloadPartition rebuilds one partition from the manifest's snapshot
// files in the local DFS (the single-process recovery path; cluster
// workers receive the images over the control plane instead and call
// reloadPartitionFrom directly).
func (rs *runState) reloadPartition(ps *partitionState, m *checkpointManifest) error {
	if ps.idx >= len(m.PartStats) {
		return fmt.Errorf("core: manifest has no partition %d", ps.idx)
	}
	st := m.PartStats[ps.idx]
	vr, err := rs.rt.DFS.Open(st.VertexFile)
	if err != nil {
		return err
	}
	mr, err := rs.rt.DFS.Open(st.MsgFile)
	if err != nil {
		return err
	}
	return rs.reloadPartitionFrom(ps, st,
		bufio.NewReaderSize(vr, 1<<16), bufio.NewReaderSize(mr, 1<<16))
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

	// add routes one checkpoint record into the vertex index (bulk load
	// for the B-tree, upsert for the LSM tree) and the Vid rebuild.
	var add func(k, v []byte) error
	var btLoader *storage.BulkLoader
	if rs.job.Storage == pregel.LSMStorage {
		lsmDir := rs.localDir(node, fmt.Sprintf("vertex-lsm-rec-p%d-%d", ps.idx, rs.nextSeq()))
		if err := mkdir(lsmDir); err != nil {
			return err
		}
		lsm, err := storage.CreateLSMBTree(node.BufferCache, lsmDir, storage.LSMOptions{MemLimit: rs.operatorMem(node)})
		if err != nil {
			return err
		}
		ps.vertexIdx = storage.AsLSMIndex(lsm)
		add = ps.vertexIdx.Insert
	} else {
		bt, err := storage.CreateBTree(node.BufferCache,
			rs.tempPath(node, fmt.Sprintf("vertex-rec-p%d", ps.idx)))
		if err != nil {
			return err
		}
		if btLoader, err = bt.NewBulkLoader(0.9); err != nil {
			return err
		}
		ps.vertexIdx = storage.AsIndex(bt)
		add = btLoader.Add
	}

	// Vertex snapshot: a frame stream (raw or compressed), vid-sorted.
	if err := eachImageFrame(vertexR, func(fr *tuple.Frame) error {
		for i := 0; i < fr.Len(); i++ {
			t := fr.Tuple(i)
			k, v := t.Field(0), t.Field(1)
			if err := add(k, v); err != nil {
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
	if btLoader != nil {
		if err := btLoader.Finish(); err != nil {
			return err
		}
	}
	var err error
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
