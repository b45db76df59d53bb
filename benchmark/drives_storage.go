package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"

	"pregelix/internal/baselines"
	"pregelix/internal/core"
	"pregelix/internal/delta"
	"pregelix/internal/dfs"
	"pregelix/internal/hyracks"
	"pregelix/internal/storage"
)

// driveStorage measures the vertex index and the run file on a buffer
// cache of the workload's size (a quarter of node RAM, as the nodes
// default to), with one partition's vertices at their mean record size.
func (d *drives) driveStorage(span int) error {
	dir, err := d.driveDir("storage")
	if err != nil {
		return err
	}
	node, err := hyracks.NewNodeController("drive", dir, hyracks.NodeConfig{RAMBytes: d.ram, PageSize: pageSize})
	if err != nil {
		return err
	}
	bc := node.BufferCache
	ids := d.graph.VertexIDs()
	ids = ids[:max(len(ids)/simNodes, 1)]
	n := float64(len(ids))
	keys := make([][]byte, len(ids))
	for i, id := range ids {
		keys[i] = vidKey(nil, id)
	}
	value := make([]byte, max(d.vol.vertexBytes, 1))
	rng := rand.New(rand.NewSource(d.cfg.Seed))
	probes := make([][]byte, min(len(keys), d.cfg.scaled(20000, 200)))
	for i := range probes {
		probes[i] = keys[rng.Intn(len(keys))]
	}

	var load, scan, search, update, lsm []float64
	for i := 0; i < driveRepeats; i++ {
		bt, err := storage.CreateBTree(bc, filepath.Join(dir, fmt.Sprintf("vertices-%d", i)))
		if err != nil {
			return err
		}
		el, err := d.span("storage.BulkLoader.Add+Finish", span, func() error {
			loader, err := bt.NewBulkLoader(0.9) // the fill the loader uses
			if err != nil {
				return err
			}
			for _, k := range keys {
				if err := loader.Add(k, value); err != nil {
					return err
				}
			}
			return loader.Finish()
		})
		if err != nil {
			return err
		}
		load = append(load, el.Seconds()*1e9/n)

		el, err = d.span("storage.BTree.ScanFrom", span, func() error {
			cur, err := bt.ScanFrom(nil)
			if err != nil {
				return err
			}
			defer cur.Close()
			seen := 0
			for {
				if _, _, ok := cur.Next(); !ok {
					break
				}
				seen++
			}
			if seen != len(keys) {
				return fmt.Errorf("scan saw %d of %d records", seen, len(keys))
			}
			return cur.Err()
		})
		if err != nil {
			return err
		}
		scan = append(scan, el.Seconds()*1e9/n)

		el, err = d.span("storage.BTree.Search", span, func() error {
			for _, k := range probes {
				if _, err := bt.Search(k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		search = append(search, el.Seconds()*1e9/float64(len(probes)))

		// Same-size overwrite of every record in key order: PageRank's
		// deferred vertex update.
		el, err = d.span("storage.BTree.Insert(overwrite)", span, func() error {
			for _, k := range keys {
				if err := bt.Insert(k, value); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		update = append(update, el.Seconds()*1e9/n)
		if err := bt.Drop(); err != nil {
			return err
		}

		lsmDir, err := d.driveDir(fmt.Sprintf("storage/lsm-%d", i))
		if err != nil {
			return err
		}
		tree, err := storage.CreateLSMBTree(bc, lsmDir, storage.LSMOptions{})
		if err != nil {
			return err
		}
		el, err = d.span("storage.LSMBTree.Insert+Flush", span, func() error {
			for _, k := range keys {
				if err := tree.Insert(k, value); err != nil {
					return err
				}
			}
			return tree.Flush()
		})
		if err != nil {
			return err
		}
		lsm = append(lsm, el.Seconds()*1e9/n)
		if err := tree.Drop(); err != nil {
			return err
		}
	}
	d.res.set("storage.bulkload_ns_per_rec", single(median(load)))
	d.res.set("storage.scan_ns_per_rec", single(median(scan)))
	d.res.set("storage.search_ns_per_key", single(median(search)))
	d.res.set("storage.update_ns_per_rec", single(median(update)))
	d.res.set("storage.lsm_insert_ns_per_rec", single(median(lsm)))
	return d.driveRunFile(span, dir)
}

// driveRunFile writes one superstep's sorted messages to a run file and
// reads them back: the Msg relation's round trip.
func (d *drives) driveRunFile(span int, dir string) error {
	frames := d.messageFrames(sortedCopy(d.keys))
	defer releaseFrames(frames)
	var writes, reads []float64
	for i := 0; i < driveRepeats; i++ {
		rf, err := storage.CreateRunFile(filepath.Join(dir, fmt.Sprintf("msgs-%d", i)))
		if err != nil {
			return err
		}
		el, err := d.span("storage.RunFile.AppendRef+CloseWrite", span, func() error {
			for _, f := range frames {
				for t := 0; t < f.Len(); t++ {
					if err := rf.AppendRef(f.Tuple(t)); err != nil {
						return err
					}
				}
			}
			return rf.CloseWrite()
		})
		if err != nil {
			rf.Delete()
			return err
		}
		size := rf.PayloadBytes()
		writes = append(writes, mbPerS(size, el))

		el, err = d.span("storage.RunReader.NextRef", span, func() error {
			rr, err := storage.OpenRunReader(rf.Path())
			if err != nil {
				return err
			}
			defer rr.Close()
			var seen int64
			for {
				if _, err := rr.NextRef(); err == io.EOF {
					break
				} else if err != nil {
					return err
				}
				seen++
			}
			if seen != rf.Count() {
				return fmt.Errorf("run file read back %d of %d tuples", seen, rf.Count())
			}
			return nil
		})
		if err != nil {
			rf.Delete()
			return err
		}
		reads = append(reads, mbPerS(size, el))
		if err := rf.Delete(); err != nil {
			return err
		}
	}
	d.res.set("storage.runfile_write_mb_per_s", single(median(writes)))
	d.res.set("storage.runfile_read_mb_per_s", single(median(reads)))
	return nil
}

// newDriveDFS builds a file system like the runtime's: one datanode per
// simulated node, replication 2.
func (d *drives) newDriveDFS(name string) (*dfs.FileSystem, error) {
	dir, err := d.driveDir(name)
	if err != nil {
		return nil, err
	}
	var nodes []*dfs.Datanode
	for i := 0; i < simNodes; i++ {
		nodes = append(nodes, &dfs.Datanode{Name: fmt.Sprintf("dn%d", i), Dir: filepath.Join(dir, fmt.Sprintf("dn%d", i))})
	}
	return dfs.New(nodes, dfs.Options{Replication: 2})
}

// driveDFS measures the replicated file system with a file of the
// input's size and with a global-state-sized file, written once per
// superstep by the single-process runtime.
func (d *drives) driveDFS(span int) error {
	fs, err := d.newDriveDFS("dfs")
	if err != nil {
		return err
	}
	bulk := make([]byte, max(int(d.vol.inputBytes), 1<<10))
	var writes, reads []float64
	for i := 0; i < driveRepeats; i++ {
		path := fmt.Sprintf("/bulk/%d", i)
		el, err := d.span("dfs.WriteFile(input-sized)", span, func() error { return fs.WriteFile(path, bulk) })
		if err != nil {
			return err
		}
		writes = append(writes, mbPerS(int64(len(bulk)), el))
		el, err = d.span("dfs.ReadFile(input-sized)", span, func() error {
			back, err := fs.ReadFile(path)
			if err == nil && len(back) != len(bulk) {
				err = fmt.Errorf("read back %d of %d bytes", len(back), len(bulk))
			}
			return err
		})
		if err != nil {
			return err
		}
		reads = append(reads, mbPerS(int64(len(bulk)), el))
		if err := fs.Remove(path); err != nil {
			return err
		}
	}
	d.res.set("dfs.write_mb_per_s", single(median(writes)))
	d.res.set("dfs.read_mb_per_s", single(median(reads)))

	// The runtime overwrites one gs.json per superstep, so the drive
	// overwrites one path too: each write also drops the old blocks.
	gs := bytes.Repeat([]byte("x"), 192) // about the size of gs.json
	var small, renames []float64
	from, to := "/gs/gs.json", "/gs/gs.json.moved"
	for i := 0; i < d.scaledCount(200); i++ {
		el, err := d.span("dfs.WriteFile(gs-sized)", span, func() error { return fs.WriteFile(from, gs) })
		if err != nil {
			return err
		}
		small = append(small, el.Seconds()*1e6)
	}
	for i := 0; i < d.scaledCount(200); i++ {
		el, err := d.span("dfs.Rename", span, func() error { return fs.Rename(from, to) })
		if err != nil {
			return err
		}
		renames = append(renames, el.Seconds()*1e6)
		from, to = to, from
	}
	d.res.set("dfs.small_write_us", summarize(small))
	d.res.set("dfs.rename_us", summarize(renames))
	return nil
}

// driveDelta measures the ingest path of one refresh's mutation batch:
// NDJSON parse, partition routing, the durable journal append.
func (d *drives) driveDelta(span int) error {
	n := max(int(serveChurn*float64(d.graph.NumEdges())), 1)
	ids := d.graph.VertexIDs()
	rng := rand.New(rand.NewSource(d.cfg.Seed))
	muts := make([]delta.Mutation, n)
	for i := range muts {
		muts[i] = delta.Mutation{Op: delta.OpAddEdge, ID: ids[rng.Intn(len(ids))], Dst: ids[rng.Intn(len(ids))]}
	}
	wire := delta.EncodeBatch(muts)
	fs, err := d.newDriveDFS("delta")
	if err != nil {
		return err
	}
	journal, err := delta.OpenJournal(core.DFSStore(fs), "/journal")
	if err != nil {
		return err
	}
	var parse, route, appendUS []float64
	for i := 0; i < d.scaledCount(20); i++ {
		el, err := d.span("delta.ParseBatch", span, func() error {
			got, err := delta.ParseBatch(bytes.NewReader(wire))
			if err == nil && len(got) != n {
				err = fmt.Errorf("parsed %d of %d mutations", len(got), n)
			}
			return err
		})
		if err != nil {
			return err
		}
		parse = append(parse, el.Seconds()*1e9/float64(n))
		el, _ = d.span("delta.Route", span, func() error { delta.Route(muts, simNodes); return nil })
		route = append(route, el.Seconds()*1e9/float64(n))
		el, err = d.span("delta.Journal.Append", span, func() error { _, err := journal.Append(muts); return err })
		if err != nil {
			return err
		}
		appendUS = append(appendUS, el.Seconds()*1e6)
	}
	d.res.set("delta.parse_ns_per_mut", single(median(parse)))
	d.res.set("delta.route_ns_per_mut", single(median(route)))
	d.res.set("delta.journal_append_us", single(median(appendUS)))
	return nil
}

// drivePregel measures the vertex codec on the workload's vertices and,
// on pr_fit, the in-memory baseline the roadmap wants job_s within 2x
// of.
func (d *drives) drivePregel(span int) error {
	vs := sampleVertices(d.job, d.graph, d.cfg.scaled(20000, 200))
	var codec []float64
	for i := 0; i < driveRepeats; i++ {
		el, err := d.span("pregel.Codec.EncodeVertex+DecodeVertex", span, func() error {
			for _, v := range vs {
				if _, err := d.job.Codec.DecodeVertex(v.ID, d.job.Codec.EncodeVertex(v)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		codec = append(codec, el.Seconds()*1e9/float64(len(vs)))
	}
	d.res.set("pregel.codec_ns_per_vertex", single(median(codec)))

	if d.cfg.Workload != wPRFit {
		return nil
	}
	dir, err := d.driveDir("baseline")
	if err != nil {
		return err
	}
	var base *baselines.Result
	if _, err := d.span("baselines.Run(giraph-mem)", span, func() error {
		base = baselines.Run(d.ctx, baselines.GiraphMem, d.job, d.graph, baselines.Config{
			Workers: simNodes, RAMPerWorker: d.ram, TempDir: dir,
		})
		return base.Err
	}); err != nil {
		return fmt.Errorf("giraph-mem baseline: %w", err)
	}
	d.res.set("baselines.inmem_ratio", single(d.jobS/(base.LoadTime+base.RunTime).Seconds()))
	return nil
}

// drives runs the layer drives for a batch workload, fed the volumes of
// its first timed job.
func (b *batchRun) drives(ctx context.Context, dir string, orc *oracle) error {
	if len(b.runs) == 0 {
		return nil
	}
	r := b.runs[0]
	text, err := graphText(b.graph)
	if err != nil {
		return err
	}
	job := b.spec.job("drive", "")
	d := &drives{
		ctx: ctx, cfg: b.cfg, res: b.res, tr: b.tr, parent: b.root,
		dir: filepath.Join(dir, "drives"), graph: b.graph, job: job,
		ram: b.spec.ramPerNode, cluster: b.spec.cluster,
		jobS: r.wall.Seconds(),
		vol:  volumesOf(r.stats, orc.msgsSent, len(text), len(r.out), job, b.graph),
	}
	return d.run()
}

// serveDrives runs the layer drives for serve_mix, fed the volumes of
// its base job (the job the oracle mirrors).
func serveDrives(ctx context.Context, s *serveRun, dir string, orc *oracle) error {
	job, err := buildClusterJob(clusterJobSpec{Algorithm: "deltapagerank"}.raw())
	if err != nil {
		return err
	}
	text, err := graphText(s.graph)
	if err != nil {
		return err
	}
	d := &drives{
		ctx: ctx, cfg: s.cfg, res: s.res, tr: s.tr, parent: s.root,
		dir: filepath.Join(dir, "drives"), graph: s.graph, job: job,
		ram: ramFit, cluster: true,
		jobS: s.baseWall.Seconds(),
		vol:  volumesOf(s.baseStats, orc.msgsSent, len(text), 0, job, s.graph),
	}
	return d.run()
}
