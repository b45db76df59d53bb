package core

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"

	"pregelix/internal/hyracks"
	"pregelix/internal/operators"
	"pregelix/internal/storage"
	"pregelix/internal/tuple"
	"pregelix/pregel"
)

// load runs the data-loading physical plan (Section 5.2): scan the input
// graph from the DFS, hash-partition it by vid across the worker
// machines, sort each partition, and bulk load one vertex index per
// partition.
func (rs *runState) load(ctx context.Context) error {
	if rs.job.InputPath == "" {
		return fmt.Errorf("core: job %s has no InputPath", rs.job.Name)
	}
	rs.initParts()
	p := len(rs.parts)

	spec := rs.newSpec(rs.job.Name + "-load")
	scanOp := &hyracks.OperatorDesc{
		ID:         "scan",
		Partitions: 1,
		NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
			return &hyracks.FuncSource{F: func(ctx context.Context, b *hyracks.BaseSource) error {
				return rs.scanInput(ctx, b)
			}}, nil
		},
	}
	// Exploit DFS block locality when placing the scan (Section 5.7).
	if loc := rs.scanLocation(); loc != "" {
		scanOp.Locations = []hyracks.NodeID{loc}
	}
	spec.AddOp(scanOp)
	locs := rs.locations()
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "sort",
		Partitions: p,
		Locations:  locs,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return operators.NewExternalSortRuntime(tc), nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{
		From: "scan", To: "sort",
		Type:        hyracks.MToNPartitioning,
		Partitioner: hyracks.HashPartitioner(0),
	})
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "bulkload",
		Partitions: p,
		Locations:  locs,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			return newBulkLoadSink(rs, tc)
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{From: "sort", To: "bulkload", Type: hyracks.OneToOne})

	return rs.runHyracks(ctx, spec)
}

// scanInput parses the DFS text input into (vid, vertexBytes) tuples.
func (rs *runState) scanInput(ctx context.Context, b *hyracks.BaseSource) error {
	r, err := rs.rt.DFS.Open(rs.job.InputPath)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	withWeights := rs.codec.NewEdgeValue != nil
	line := 0
	done := ctx.Done()
	for sc.Scan() {
		if err := canceled(ctx, done); err != nil {
			return err
		}
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		v, err := pregel.ParseVertexLine(text, withWeights)
		if err != nil {
			return fmt.Errorf("core: %s line %d: %w", rs.job.InputPath, line, err)
		}
		if v.Value == nil {
			v.Value = rs.codec.NewVertexValue()
		}
		t := tuple.Tuple{
			tuple.EncodeUint64(uint64(v.ID)),
			rs.codec.EncodeVertex(v),
		}
		if err := b.Emit(0, t); err != nil {
			return err
		}
	}
	return sc.Err()
}

// newBulkLoadSink bulk loads the sorted vertex stream into the
// partition's B-tree. No Vid index is built: every vertex is active in
// superstep 1, which therefore scans (chooseJoinFor) and builds the
// first one.
func newBulkLoadSink(rs *runState, tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
	ps := rs.parts[tc.Partition]
	node := tc.Node

	var loader *storage.BulkLoader
	return &hyracks.FuncRuntime{
		OnOpen: func(_ *hyracks.BaseRuntime) error {
			bt, err := storage.CreateBTree(node.BufferCache,
				rs.tempPath(node, fmt.Sprintf("vertex-p%d", ps.idx)))
			if err != nil {
				return err
			}
			if loader, err = bt.NewBulkLoader(0.9); err != nil {
				return err
			}
			ps.vertexIdx = storage.AsIndex(bt)
			return nil
		},
		OnTuple: func(_ *hyracks.BaseRuntime, t tuple.Tuple) error {
			if err := loader.Add(t[0], t[1]); err != nil {
				return err
			}
			ps.numVertices++
			ps.numEdges += int64(edgeCountOf(t[1]))
			return nil
		},
		OnClose: func(_ *hyracks.BaseRuntime) error { return loader.Finish() },
	}, nil
}

// edgeCountOf reads the edge count out of an encoded vertex record
// without a full decode (layout documented in pregel/vertex.go).
func edgeCountOf(rec []byte) uint32 {
	if len(rec) < 5 {
		return 0
	}
	vlen := u32At(rec, 1)
	off := 5 + int(vlen)
	if off+4 > len(rec) {
		return 0
	}
	return u32At(rec, off)
}

func u32At(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}

// dump scans every partition's vertex index, formats the rows as text,
// and writes the result back to the DFS (Section 5.2).
func (rs *runState) dump(ctx context.Context) error {
	out, err := rs.dumpRows(ctx)
	if err != nil {
		return err
	}
	return rs.rt.DFS.WriteFile(rs.job.OutputPath, out)
}

// dumpRows runs the dump plan, one scan task per partition that decodes
// and formats its own rows, and returns the rows this process holds as
// newline-terminated lines in vid order: the whole output in a
// single-process run, a worker's share of it on a cluster, where the
// coordinator merges the shares.
func (rs *runState) dumpRows(ctx context.Context) ([]byte, error) {
	parts := make([][]byte, len(rs.parts))
	spec := rs.newSpec(rs.job.Name + "-dump")
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "scan-vertex",
		Partitions: len(rs.parts),
		Locations:  rs.locations(),
		NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
			ps := rs.parts[tc.Partition]
			return &hyracks.FuncSource{F: func(ctx context.Context, _ *hyracks.BaseSource) error {
				cur, err := ps.vertexIdx.ScanFrom(nil)
				if err != nil {
					return err
				}
				defer cur.Close()
				dec := rs.codec.NewVertexDecoder() // a row is formatted before the next is decoded
				done := ctx.Done()
				for {
					k, val, ok := cur.NextView()
					if !ok {
						return cur.Err()
					}
					if err := canceled(ctx, done); err != nil {
						return err
					}
					v, err := dec.Decode(pregel.VertexID(tuple.DecodeUint64(k)), val)
					if err != nil {
						return err
					}
					parts[tc.Partition] = append(append(parts[tc.Partition], pregel.FormatVertexLine(v)...), '\n')
				}
			}}, nil
		},
	})
	if err := rs.runHyracks(ctx, spec); err != nil {
		return nil, err
	}
	// A partition scans its vertices in vid order.
	return mergeDumps(parts)
}

// mergeDumps merges shares of dump rows, each in vid order, into one
// output in vid order, on the vid that starts each row
// (pregel.FormatVertexLine): a process's partitions, and on a cluster
// the workers' shares. Those come from other processes, so a row that
// does not start with a vid, an unterminated row, rows out of order and
// a vid in two rows are errors.
func mergeDumps(shares [][]byte) ([]byte, error) {
	type head struct {
		rest, line []byte // line is nil once the share is used up
		vid        uint64
	}
	heads := make([]head, len(shares))
	next := func(h *head) error {
		if len(h.rest) == 0 {
			h.line = nil
			return nil
		}
		end := bytes.IndexByte(h.rest, '\n')
		if end < 0 {
			return fmt.Errorf("dump row %.40q has no newline", h.rest)
		}
		field, _, _ := bytes.Cut(h.rest[:end], []byte{'\t'})
		vid, err := strconv.ParseUint(string(field), 10, 64)
		if err != nil {
			return fmt.Errorf("dump row %.40q does not start with a vid", h.rest[:end])
		}
		if h.line != nil && vid <= h.vid {
			return fmt.Errorf("dump rows out of vid order: %d after %d", vid, h.vid)
		}
		h.rest, h.line, h.vid = h.rest[end+1:], h.rest[:end+1], vid
		return nil
	}
	size := 0
	for i, share := range shares {
		size += len(share)
		heads[i].rest = share
		if err := next(&heads[i]); err != nil {
			return nil, err
		}
	}
	out := make([]byte, 0, size)
	for {
		// Few shares, one per partition or worker: a scan finds the least
		// head, and meets a vid held twice once it is the least.
		m := -1
		for i, h := range heads {
			switch {
			case h.line == nil:
			case m < 0 || h.vid < heads[m].vid:
				m = i
			case h.vid == heads[m].vid:
				return nil, fmt.Errorf("vid %d is dumped twice", h.vid)
			}
		}
		if m < 0 {
			return out, nil
		}
		out = append(out, heads[m].line...)
		if err := next(&heads[m]); err != nil {
			return nil, err
		}
	}
}
