package core

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

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

	_, err := rs.runHyracks(ctx, spec)
	return err
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
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
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
// partition's index (B-tree or LSM per the job's storage hint). No Vid
// index is built: every vertex is active in superstep 1, which therefore
// scans (chooseJoinFor) and builds the first one.
func newBulkLoadSink(rs *runState, tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
	ps := rs.parts[tc.Partition]
	node := tc.Node

	var bt *storage.BTree
	var btLoader *storage.BulkLoader
	var lsm *storage.LSMBTree

	return &hyracks.FuncRuntime{
		OnOpen: func(_ *hyracks.BaseRuntime) error {
			var err error
			if rs.job.Storage == pregel.LSMStorage {
				dir := rs.localDir(node, fmt.Sprintf("vertex-lsm-p%d-%d", ps.idx, rs.nextSeq()))
				if err := mkdir(dir); err != nil {
					return err
				}
				lsm, err = storage.CreateLSMBTree(node.BufferCache, dir, storage.LSMOptions{
					MemLimit: tc.OperatorMem,
				})
				if err != nil {
					return err
				}
				ps.vertexIdx = storage.AsLSMIndex(lsm)
			} else {
				bt, err = storage.CreateBTree(node.BufferCache,
					rs.tempPath(node, fmt.Sprintf("vertex-p%d", ps.idx)))
				if err != nil {
					return err
				}
				if btLoader, err = bt.NewBulkLoader(0.9); err != nil {
					return err
				}
				ps.vertexIdx = storage.AsIndex(bt)
			}
			return nil
		},
		OnTuple: func(_ *hyracks.BaseRuntime, t tuple.Tuple) error {
			if btLoader != nil {
				if err := btLoader.Add(t[0], t[1]); err != nil {
					return err
				}
			} else if err := lsm.Insert(t[0], t[1]); err != nil {
				return err
			}
			ps.numVertices++
			ps.numEdges += int64(edgeCountOf(t[1]))
			return nil
		},
		OnClose: func(_ *hyracks.BaseRuntime) error {
			if btLoader != nil {
				if err := btLoader.Finish(); err != nil {
					return err
				}
			}
			if lsm != nil {
				return lsm.Flush()
			}
			return nil
		},
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

func mkdir(dir string) error { return os.MkdirAll(dir, 0o755) }

// dumpRow is one formatted output line keyed by vid for ordering.
type dumpRow struct {
	vid  uint64
	line string
}

// dump scans every partition's vertex index, formats the rows as text,
// and writes the result back to the DFS (Section 5.2).
func (rs *runState) dump(ctx context.Context) error {
	rows, owner, err := rs.dumpRows(ctx)
	if err != nil {
		return err
	}
	if !owner {
		// Only the process hosting the write task has the rows; writing
		// here would silently produce an empty output file. Partial
		// executions dump through the distributed driver's phase RPCs.
		return fmt.Errorf("core: dump %s: this process does not host the write task (partial execution must dump via the cluster coordinator)", rs.job.Name)
	}
	w, err := rs.rt.DFS.Create(rs.job.OutputPath)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, r.line); err != nil {
			return err
		}
	}
	return w.Close()
}

// dumpRows runs the dump plan and returns the vid-sorted rows collected
// by the single write task, plus whether this process hosted that task
// (on a distributed run only the owner's row set is populated; the other
// participants feed it over the wire and return owner=false).
func (rs *runState) dumpRows(ctx context.Context) ([]dumpRow, bool, error) {
	p := len(rs.parts)
	var mu sync.Mutex
	rows := make([]dumpRow, 0, 1024)

	spec := rs.newSpec(rs.job.Name + "-dump")
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "scan-vertex",
		Partitions: p,
		Locations:  rs.locations(),
		NewSource: func(tc *hyracks.TaskContext) (hyracks.SourceRuntime, error) {
			ps := rs.parts[tc.Partition]
			return &hyracks.FuncSource{F: func(ctx context.Context, b *hyracks.BaseSource) error {
				cur, err := ps.vertexIdx.ScanFrom(nil)
				if err != nil {
					return err
				}
				defer cur.Close()
				for {
					k, v, ok := cur.NextView() // EmitFields copies into the frame at once
					if !ok {
						return cur.Err()
					}
					if err := b.EmitFields(0, k, v); err != nil {
						return err
					}
				}
			}}, nil
		},
	})
	spec.AddOp(&hyracks.OperatorDesc{
		ID:         "write",
		Partitions: 1,
		NewRuntime: func(tc *hyracks.TaskContext) (hyracks.PushRuntime, error) {
			dec := rs.codec.NewVertexDecoder() // a row is formatted before the next is decoded
			return &hyracks.FuncRuntime{
				OnRef: func(_ *hyracks.BaseRuntime, t tuple.TupleRef) error {
					v, err := dec.Decode(pregel.VertexID(tuple.DecodeUint64(t.Field(0))), t.Field(1))
					if err != nil {
						return err
					}
					mu.Lock()
					rows = append(rows, dumpRow{uint64(v.ID), pregel.FormatVertexLine(v)})
					mu.Unlock()
					return nil
				},
			}, nil
		},
	})
	spec.Connect(&hyracks.ConnectorDesc{From: "scan-vertex", To: "write", Type: hyracks.ReduceToOne})

	res, err := rs.runHyracks(ctx, spec)
	if err != nil {
		return nil, false, err
	}
	owner := rs.exec.Local(res.Assignment["write"][0])
	sort.Slice(rows, func(i, j int) bool { return rows[i].vid < rows[j].vid })
	return rows, owner, nil
}
