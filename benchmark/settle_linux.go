package main

import (
	"os"
	"runtime"
	"syscall"
)

// sysSyncfs is syncfs(2)'s number where this is known to run; package
// syscall does not name it on amd64. 0 = settleFS does nothing.
var sysSyncfs = map[string]uintptr{"amd64": 306, "arm64": 267}[runtime.GOARCH]

// settleFS flushes the file system the scratch directory is on (syncfs:
// no other mount is touched), and is called (untimed) before every
// set-up, timed job and refresh so each starts from the same state. The
// checkout's ext4 is mounted with discard: deletions are committed and
// trimmed in the background for seconds afterwards, and a workload that
// creates a few files per superstep runs 2-3x slower meanwhile, whether
// the deletions were an earlier run's or its own. An fsync of the
// directory, or of a file in it, does not do: sssp_chain jobs then still
// take 12-14 s now and then instead of 2.5-3 s. The flush only steadies
// timings, so a directory that cannot be opened or flushed is let be.
func settleFS(scratch string) {
	if sysSyncfs == 0 {
		return
	}
	d, err := os.Open(scratch)
	if err != nil {
		return
	}
	_, _, _ = syscall.Syscall(sysSyncfs, d.Fd(), 0, 0)
	d.Close()
}
