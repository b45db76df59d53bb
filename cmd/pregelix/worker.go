package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pregelix/internal/core"
	"pregelix/internal/tuple"
	"pregelix/pregel"
)

// workerMain runs one node-controller process of a distributed cluster:
// it registers with the cluster controller (`pregelix serve` in cluster
// mode), hosts its share of the cluster's nodes, and exchanges shuffle
// frames with its peers over the wire transport. Joining a running
// cluster triggers an elastic scale-out (partitions migrate onto the
// new worker at the next superstep boundary) unless -standby parks it
// as a passive hot spare; with -drain, the first SIGINT/SIGTERM asks
// the controller to migrate this worker's partitions out and the
// process exits cleanly once released.
func workerMain(args []string) {
	fs := flag.NewFlagSet("pregelix worker", flag.ExitOnError)
	var (
		cc       = fs.String("cc", "127.0.0.1:9090", "cluster controller control-plane address")
		listen   = fs.String("listen", "127.0.0.1:0", "wire-transport listen address")
		nodes    = fs.Int("nodes", 2, "node controllers this worker contributes")
		dir      = fs.String("dir", "", "storage directory (default: a temp dir)")
		standby  = fs.Bool("standby", false, "when joining a running cluster, park as a passive standby instead of triggering an elastic rebalance")
		drain    = fs.Bool("drain", false, "on the first SIGINT/SIGTERM, drain gracefully: migrate partitions out, then exit (a second signal force-quits)")
		rejoin   = fs.Bool("rejoin", false, "re-register with the controller whenever the connection is lost (run as a resilient standby)")
		wait     = fs.Duration("rejoin-wait", 2*time.Second, "pause between rejoin attempts")
		compress = fs.String("compress", "auto", "frame compression of what this worker sends and writes — shuffle frames, checkpoint and migration images: off, flate, or auto (every frame names its encoding, so workers with different settings interoperate)")
	)
	fs.Parse(args)

	mode, err := tuple.ParseCompressMode(*compress)
	if err != nil {
		fatal(err)
	}

	baseDir := *dir
	if baseDir == "" {
		var err error
		baseDir, err = os.MkdirTemp("", "pregelix-worker-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(baseDir)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drainCh := make(chan struct{})
	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		if *drain {
			// First signal: graceful departure. RunWorker notifies the
			// controller, keeps serving until the migration completes,
			// and returns nil when released. A second signal falls
			// through to the hard shutdown below.
			fmt.Fprintln(os.Stderr, "pregelix worker: draining (signal again to force quit)")
			close(drainCh)
			<-stop
		}
		fmt.Fprintln(os.Stderr, "pregelix worker: shutting down")
		cancel()
	}()

	// One session outlives every rejoin: the runtime and sealed query
	// results survive a lost controller connection, so when the worker
	// re-registers (after a coordinator restart or standby takeover) its
	// handshake reports the sealed versions it still holds and the new
	// coordinator re-adopts them instead of losing the query tier.
	session := core.NewWorkerSession()
	defer session.Close()

	cfg := core.WorkerConfig{
		CCAddr:     *cc,
		DataListen: *listen,
		BaseDir:    baseDir,
		Nodes:      *nodes,
		BuildJob:   buildJobFromSpec,
		Elastic:    !*standby,
		Compress:   mode,
		Session:    session,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pregelix "+format+"\n", args...)
		},
	}
	if *drain {
		cfg.Drain = drainCh
	}
	// A worker joining an already-running cluster is absorbed by the
	// next rebalance point (or, with -standby, parks until a failure
	// recovery adopts it); with -rejoin it also re-registers whenever
	// its controller connection drops, so one long-lived process can
	// serve as a permanent hot spare.
	for {
		err := core.RunWorker(ctx, cfg)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			// Released after a drain: done, even under -rejoin.
			return
		}
		if !*rejoin {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pregelix worker: connection lost (%v), rejoining in %s\n", err, *wait)
		select {
		case <-ctx.Done():
			return
		case <-time.After(*wait):
		}
	}
}

// buildJobFromSpec resolves the serve API's job descriptor to a job.
// The cluster controller and every worker run this same mapping, so a
// descriptor shipped over the control plane means the same logical job
// everywhere.
func buildJobFromSpec(raw json.RawMessage) (*pregel.Job, error) {
	var req jobRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, err
	}
	return buildServeJob(&req)
}
