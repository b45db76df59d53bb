package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The yardstick. This benchmark runs on a small guest of a shared host
// whose speed wanders: with nothing stolen from it the same job takes
// 2.7 s in one minute and 3.7 s in another, for minutes at a time, and
// 5.5 s while the hypervisor holds a vCPU back (README.md, "Noise").
// More samples do not average that out, because every job of a run is
// slow together. So each run also measures how fast the box is while it
// runs: a fixed piece of work of the kind the engine does (a reflection
// sort of records, then small allocations into a map), on both cores, in
// a child process of its own so that its memory is not the workload's,
// between the timed units of the run. The run's pace is the median of those
// samples over what the same work takes on this box when it is calm, and
// every time the run reports is divided by it (every rate multiplied):
// the figures are seconds at the yardstick's calm pace, and the pace is
// reported beside them as yardstick.pace.

// yardstickNominal is how long one yardstick sample takes at scale 1 on
// the box the recorded baseline comes from when nothing disturbs it, in
// seconds. It only fixes the scale: a pace of 1 means "as fast as that".
const yardstickNominal = 0.28

const (
	yardRecords   = 160000 // records each core sorts
	yardAllocs    = 400000 // small allocations per core
	yardAllocKeys = 100000 // distinct map keys they are appended under
	yardCores     = simNodes
)

type yardRecord struct {
	key  uint64
	a, b uint64
}

// yardWork is the state of the fixed work, allocated once.
type yardWork struct {
	records [yardCores][]yardRecord
	allocs  int
	sink    uint64
}

// newYardWork sizes the work by the run's scale, like every other input.
func newYardWork(scale float64) *yardWork {
	w := &yardWork{allocs: int(yardAllocs * scale)}
	for c := range w.records {
		w.records[c] = make([]yardRecord, int(yardRecords*scale))
	}
	return w
}

// run does the fixed work once and returns how long it took.
func (w *yardWork) run() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	sinks := make([]uint64, yardCores)
	for c := 0; c < yardCores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := uint64(c)*7919 + 88172645463325252
			next := func() uint64 { // xorshift64
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return x
			}
			recs := w.records[c]
			for i := range recs {
				recs[i].key = next()
			}
			sort.SliceStable(recs, func(i, j int) bool { return recs[i].key < recs[j].key })

			m := make(map[uint64][]byte)
			for i := 0; i < w.allocs; i++ {
				k := next() % yardAllocKeys
				m[k] = append(m[k], make([]byte, 24)...)
			}
			sinks[c] = uint64(len(m)) + uint64(len(recs))
		}(c)
	}
	wg.Wait()
	for _, s := range sinks {
		w.sink += s
	}
	return time.Since(start)
}

// cmdYardstick is the child process (`yardstick <scale>`): it does the
// work once for every line it reads and answers with the seconds it took,
// until its input ends.
func cmdYardstick(args []string) int {
	scale := 1.0
	if len(args) > 0 {
		var err error
		if scale, err = strconv.ParseFloat(args[0], 64); err != nil || scale <= 0 {
			fmt.Fprintf(os.Stderr, "benchmark: yardstick: bad scale %q\n", args[0])
			return 2
		}
	}
	// The collector runs between passes, never during one: a pass that
	// met a collection would measure that.
	debug.SetGCPercent(-1)
	w := newYardWork(scale)
	w.run() // the first pass faults the memory in
	runtime.GC()
	in := bufio.NewScanner(os.Stdin)
	fmt.Println("ready")
	for in.Scan() {
		took := w.run()
		runtime.GC()
		fmt.Println(strconv.FormatFloat(took.Seconds(), 'g', -1, 64))
	}
	return 0
}

// yardstick is the parent's end of the child. A nil *yardstick (tests
// of single functions have none) takes no samples and its pace is 1.
type yardstick struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	nominal float64 // seconds a sample takes at the calm pace
	samples []float64
}

// startYardstick starts the child at the run's scale and waits until it
// is ready.
func startYardstick(scale float64) (*yardstick, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "yardstick", strconv.FormatFloat(scale, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	y := &yardstick{cmd: cmd, in: in, out: bufio.NewReader(out), nominal: yardstickNominal * scale}
	if line, err := y.out.ReadString('\n'); err != nil || strings.TrimSpace(line) != "ready" {
		y.close()
		return nil, fmt.Errorf("yardstick did not start: %q, %v", line, err)
	}
	return y, nil
}

// sample has the child do the work once, while this process waits.
func (y *yardstick) sample() error {
	if y == nil {
		return nil
	}
	if _, err := io.WriteString(y.in, "\n"); err != nil {
		return fmt.Errorf("yardstick: %w", err)
	}
	line, err := y.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("yardstick: %w", err)
	}
	s, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		return fmt.Errorf("yardstick: %w", err)
	}
	y.samples = append(y.samples, s)
	return nil
}

// pace is how slow the box was while the run ran: 1 = the yardstick's
// calm pace, 1.5 = everything took half as long again.
func (y *yardstick) pace() summary {
	if y == nil || len(y.samples) == 0 {
		return single(1)
	}
	paces := make([]float64, len(y.samples))
	for i, s := range y.samples {
		paces[i] = s / y.nominal
	}
	return summarize(paces)
}

// close ends the child and waits for it; a second call does nothing.
func (y *yardstick) close() error {
	if y == nil || y.cmd == nil {
		return nil
	}
	y.in.Close()
	err := y.cmd.Wait()
	y.cmd = nil
	return err
}
