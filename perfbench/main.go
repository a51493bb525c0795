// Command perfbench is the repository's end-to-end benchmark. It drives
// cabled in process, through server.New(cfg).Handler().ServeHTTP with no
// TCP, and the paper pipeline through the public exp, strategy, learn, mine
// and core functions. Every workload is a closed loop with one client; each
// result is checked against an independent reference, and the run prints
// one JSON result line last on standard output.
//
//	perfbench -workload triage -seed 1 -seconds 8 -trace 0
//
// With -trace 1 the same inputs are replayed through each layer's public
// functions under spans recorded here, and the per-layer split is printed
// instead of the end-to-end metrics. README.md describes the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	out      string
}

// setupRepeats is how many times a timed run sets the program up; setup_s
// reports the median.
const setupRepeats = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: triage, bulk, stream or paper")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 8, "nominal measured seconds; fixes the run's op count")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer replay instead of the timed run")
	fs.BoolVar(&o.smoke, "smoke", false, "run a handful of ops with every check on")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for scratch state and the traced run's export")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	o.trace = traceFlag == 1
	res, rec, err := execute(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := printJSON(stdout, rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printJSON(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the line printed before the result: provenance, the noise
// record of the run, and the figures the result line has no room for.
type record struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Trace      bool       `json:"trace"`
	Ops        int        `json:"ops"`
	ErrorRatio float64    `json:"error_ratio"`
	Wall       *wallTimes `json:"wall,omitempty"`
	Errors     []string   `json:"errors,omitempty"`
	Export     string     `json:"export,omitempty"`
	Provenance provenance `json:"provenance"`
	Noise      noise      `json:"noise"`
}

// wallTimes are a timed run's wall-clock figures. They are recorded, not
// gated: on a shared host, CPU steal moves them by up to half between
// runs of the same code, while the CPU-time figures stay put.
type wallTimes struct {
	OpsPerS       float64   `json:"ops_per_s"`
	LatencyP50Ms  float64   `json:"latency_p50_ms"`
	LatencyTailMs float64   `json:"latency_tail_ms"`
	Tail          string    `json:"tail_percentile"`
	SetupS        []float64 `json:"setup_runs_s"`
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding output: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// execute runs one workload in the mode o asks for and assembles its
// output lines.
func execute(o options) (result, record, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, record{}, fmt.Errorf("scratch directory: %w", err)
	}
	scratch, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return result{}, record{}, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(scratch)
	e := env{seed: o.seed, seconds: o.seconds, smoke: o.smoke, dir: scratch}
	rec := record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Provenance: readProvenance()}
	if o.trace {
		return executeTraced(o, e, rec)
	}
	w, err := workloads[o.workload](e)
	if err != nil {
		return result{}, rec, err
	}
	m, err := measure(w, setupRepeats)
	if err != nil {
		return result{}, rec, err
	}
	rec.Ops = len(m.lat)
	rec.ErrorRatio = m.errorRatio()
	rec.Errors = m.errors
	rec.Noise = m.noise
	tail, label := m.tail()
	rec.Wall = &wallTimes{OpsPerS: m.throughput(), LatencyP50Ms: ms(percentile(m.lat, 0.50)), LatencyTailMs: ms(tail), Tail: label}
	for _, d := range m.setup {
		rec.Wall.SetupS = append(rec.Wall.SetupS, d.Seconds())
	}
	ops := float64(len(m.lat))
	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics: map[string]metric{
			"setup_s":       {median(m.setupCPU).Seconds(), "s"},
			"cpu_ms_per_op": {m.noise.CPUMsPerOp, "ms"},
			"allocs_per_op": {float64(m.mallocs) / ops, "count"},
			"heap_live_mb":  {float64(m.heapLive) / (1 << 20), "MB"},
		},
	}
	return res, rec, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
