package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// env is what every workload is built from: its seed and size, a scratch
// directory inside the checkout, and in traced runs the span recorder.
type env struct {
	seed    int64
	seconds int
	smoke   bool
	dir     string
	tr      *tracer      // nil in timed runs: no replay, no spans
	obs     *obs.Metrics // the server's registry; nil (disabled) in timed runs
	digest  io.Writer    // tests: receives every op's result with IDs removed
}

// workload is one closed-loop benchmark. Its constructor generates every
// input from the seed; nothing it does counts as set-up time.
type workload interface {
	// setup builds the program's state and runs one untimed warm-up pass.
	// It may be called again after close, and starts from scratch each time.
	setup() error
	// ops is the number of ops in the timed script.
	ops() int
	// do runs op i, checks its reply and returns the time the program took.
	do(i int) (time.Duration, error)
	// finish runs the checks that need the whole run, over the state the
	// timed phase left; it returns how many checks ran and how many failed.
	finish() (checks, failed int, err error)
	// close releases the program's state.
	close()
}

var workloads = map[string]func(env) (workload, error){
	"triage": newTriage,
	"bulk":   newBulk,
	"stream": newStream,
	"paper":  newPaper,
}

// maxLoggedErrors bounds the op errors kept for the record line.
const maxLoggedErrors = 8

// measurement is what one timed run of a workload yields.
type measurement struct {
	setup             []time.Duration // wall time of each set-up
	setupCPU          []time.Duration // process CPU time of each set-up
	lat               []time.Duration
	ends              []time.Duration // time from the start of the timed phase to each op's end
	wall              time.Duration
	attempted, failed int
	errors            []string
	mallocs           uint64
	heapLive          uint64
	noise             noise
}

func (m measurement) errorRatio() float64 {
	if m.attempted == 0 {
		return 0
	}
	return float64(m.failed) / float64(m.attempted)
}

func (m *measurement) fail(what string, err error) {
	m.failed++
	if len(m.errors) < maxLoggedErrors {
		m.errors = append(m.errors, fmt.Sprintf("%s: %v", what, err))
	}
}

// measure sets w up setups times, then runs its timed script once on the
// last set-up and checks the result. The script length is fixed by the
// inputs, never by elapsed time, so state grows identically on every
// commit.
func measure(w workload, setups int) (measurement, error) {
	var m measurement
	for r := 0; r < setups; r++ {
		if r > 0 {
			w.close()
		}
		start, cpu := time.Now(), processCPU()
		if err := w.setup(); err != nil {
			w.close()
			return m, fmt.Errorf("setup: %w", err)
		}
		m.setup = append(m.setup, time.Since(start))
		m.setupCPU = append(m.setupCPU, processCPU()-cpu)
	}
	defer w.close()
	n := w.ops()
	m.lat, m.ends = make([]time.Duration, n), make([]time.Duration, n)
	m.attempted = n

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	probe := startNoise()
	start := time.Now()
	for i := 0; i < n; i++ {
		d, err := w.do(i)
		m.lat[i], m.ends[i] = d, time.Since(start)
		if err != nil {
			m.fail(fmt.Sprintf("op %d", i), err)
		}
	}
	m.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	m.noise = probe.stop(n)
	m.mallocs = after.Mallocs - before.Mallocs
	m.heapLive = liveHeap()

	checks, failed, err := w.finish()
	if err != nil {
		return m, fmt.Errorf("final checks: %w", err)
	}
	m.attempted += checks
	for i := 0; i < failed; i++ {
		m.fail("final check", fmt.Errorf("failed"))
	}
	return m, nil
}

// blocks is how many equal slices of the timed script the steady
// throughput and tail figures are taken over.
const blocks = 20

// throughput is ops completed per second: on long scripts the median over
// blocks, so a burst of machine noise in one slice of the run moves it
// little.
func (m measurement) throughput() float64 {
	n := len(m.ends)
	if n/blocks < 1010 {
		return float64(n) / m.wall.Seconds()
	}
	rates := make([]float64, blocks)
	prev := time.Duration(0)
	for b := 0; b < blocks; b++ {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		rates[b] = float64(hi-lo) / (m.ends[hi-1] - prev).Seconds()
		prev = m.ends[hi-1]
	}
	sort.Float64s(rates)
	return (rates[blocks/2-1] + rates[blocks/2]) / 2
}

// tail is tailLatency of the whole run, or, when every block holds enough
// samples for a p99 with ten beyond it, the median of the blocks' p99s.
func (m measurement) tail() (time.Duration, string) {
	n := len(m.lat)
	if n/blocks < 1010 {
		return tailLatency(m.lat)
	}
	tails := make([]time.Duration, blocks)
	for b := 0; b < blocks; b++ {
		tails[b], _ = tailLatency(m.lat[b*n/blocks : (b+1)*n/blocks])
	}
	return median(tails), "p99, median of 20 blocks"
}

// liveHeap is HeapAlloc after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// percentile is the nearest-rank p-quantile of the samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of quantile p among n samples.
func rank(n int, p float64) int {
	k := int(float64(n)*p + 0.999999)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailLatency is the highest of p99 and p90 that has at least ten samples
// beyond it, with its label; runs too short for either report the maximum.
func tailLatency(samples []time.Duration) (time.Duration, string) {
	s := sortedCopy(samples)
	for _, q := range []struct {
		p     float64
		label string
	}{{0.99, "p99"}, {0.90, "p90"}} {
		if k := rank(len(s), q.p); len(s)-k >= 10 {
			return s[k-1], q.label
		}
	}
	if len(s) == 0 {
		return 0, "max"
	}
	return s[len(s)-1], "max"
}

func median(samples []time.Duration) time.Duration { return percentile(samples, 0.5) }

func sortedCopy(samples []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
