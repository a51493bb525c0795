package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/specs"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_rows.json from the current code")

// smokeEnv is a handful of ops per workload with every check on.
func smokeEnv(t *testing.T, seed int64) env {
	return env{seed: seed, seconds: 1, smoke: true, dir: t.TempDir()}
}

func build(t *testing.T, name string, e env) workload {
	t.Helper()
	w, err := workloads[name](e)
	if err != nil {
		t.Fatalf("%s: generating inputs: %v", name, err)
	}
	return w
}

// TestPaperRowsPinned rewrites the pinned rows under -update, and
// otherwise checks they cover every spec.
func TestPaperRowsPinned(t *testing.T) {
	if *update {
		w := build(t, "paper", smokeEnv(t, 1)).(*paper)
		var rows []paperRow
		for _, sp := range specs.All() {
			row, _, err := w.row(sp, exp.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
		b, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/paper_rows.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var rows []paperRow
	if err := json.Unmarshal(expectedRows, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(specs.All()) {
		t.Fatalf("%d pinned rows, want %d; run go test -run TestPaperRowsPinned -update", len(rows), len(specs.All()))
	}
}

// TestSmoke runs every workload for a handful of ops, timed and traced,
// with every check on, and expects no failure.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				o := options{workload: name, seed: 7, seconds: 1, smoke: true, trace: traced, out: t.TempDir()}
				res, rec, err := execute(o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || rec.ErrorRatio != 0 {
					t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, rec.Errors)
				}
				want := []string{"setup_s", "cpu_ms_per_op", "allocs_per_op", "heap_live_mb"}
				if traced {
					want = want[:0]
					for _, m := range perLayer {
						want = append(want, m.name)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if _, ok := res.Metrics[m]; !ok {
						t.Errorf("metric %s missing", m)
					}
				}
			})
		}
	}
}

// digests runs a workload's timed script once and returns the digest of
// its inputs and of its results with server-chosen IDs removed.
func digests(t *testing.T, name string, seed int64) (inputs, results string) {
	e := smokeEnv(t, seed)
	h := sha256.New()
	e.digest = h
	w := build(t, name, e)
	in := sha256.Sum256([]byte(inputDump(w)))
	m, err := measure(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 {
		t.Fatalf("%s: %v", name, m.errors)
	}
	return fmt.Sprintf("%x", in), fmt.Sprintf("%x", h.Sum(nil))
}

// inputDump renders a workload's generated inputs.
func inputDump(w workload) string {
	var b strings.Builder
	switch w := w.(type) {
	case *triage:
		for _, op := range w.script {
			fmt.Fprintf(&b, "%d %d %s %s %q\n", op.kind, op.arg, op.e.create, op.e.add, op.e.labels)
		}
	case *bulk:
		for _, op := range w.script {
			s := w.sessions[op.s]
			fmt.Fprintf(&b, "%d %d %s %q %v\n", op.kind, op.arg, s.create, s.adds, s.addNew)
		}
	case *streamWork:
		fmt.Fprintf(&b, "%d %v %q\n", w.n, w.bad, w.bodies)
	case *paper:
		for _, r := range w.rows {
			fmt.Fprintf(&b, "%s %d\n", r.spec.Name, r.seed)
		}
	}
	return b.String()
}

func TestDeterminism(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			in1, out1 := digests(t, name, 11)
			in2, out2 := digests(t, name, 11)
			if in1 != in2 || out1 != out2 {
				t.Errorf("same seed, different runs: inputs %s/%s results %s/%s", in1, in2, out1, out2)
			}
			if in3, _ := digests(t, name, 12); in3 == in1 {
				t.Errorf("seeds 11 and 12 gave the same inputs")
			}
		})
	}
}

// TestWrongExpectationFails corrupts one expected result per workload and
// requires the run to count it as failed.
func TestWrongExpectationFails(t *testing.T) {
	corrupt := map[string]func(workload){
		"triage": func(w workload) {
			e := w.(*triage).pool[0]
			for k, v := range e.truth {
				e.truth[k] = map[string]string{"good": "bad", "bad": "good"}[v]
				break
			}
		},
		"bulk": func(w workload) {
			b := w.(*bulk)
			for i := range b.sampled {
				b.sessions[i].corpus = b.sessions[i].corpus[1:] // the naive re-check sees another corpus
			}
		},
		"stream": func(w workload) {
			s := w.(*streamWork)
			s.bad[0] = 1 - min(s.bad[0], 1)
		},
		"paper": func(w workload) { w.(*paper).expected[0].Concepts++ },
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := build(t, name, smokeEnv(t, 3))
			corrupt[name](w)
			m, err := measure(w, 1)
			if err != nil {
				t.Fatal(err)
			}
			if m.errorRatio() == 0 {
				t.Fatalf("a wrong expected result went unnoticed")
			}
		})
	}
}

func TestCheckRowOrderStatistics(t *testing.T) {
	ok := paperRow{Spec: "x", Table3: exp.Strategies{Expert: 5, Baseline: 10, TopDown: 7, BottomUp: 10, RandomMean: 7.5, Optimal: 4}}
	if err := checkRow(ok); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.Table3.Optimal = 6 // worse than Expert
	if checkRow(bad) == nil {
		t.Error("Optimal above Expert passed")
	}
	bad = ok
	bad.Table3.Expert = 12 // Baseline + 2
	if checkRow(bad) == nil {
		t.Error("Expert above Baseline+1 passed")
	}
}

// TestTraceAccounting checks that per-layer self times, the residual and
// unattributed time add up to the op time, and that every span recorded
// under a replay has a metric in perLayer.
func TestTraceAccounting(t *testing.T) {
	listed := map[string]bool{}
	for _, m := range perLayer {
		listed[m.name] = true
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			e := smokeEnv(t, 5)
			e.tr = newTracer()
			w := build(t, name, e)
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			defer w.close()
			for i := 0; i < w.ops(); i++ {
				id := e.tr.beginOp(i)
				if _, err := w.do(i); err != nil {
					t.Fatal(err)
				}
				e.tr.endOp(id)
			}
			acc := e.tr.account()
			if acc.ops != w.ops() || acc.opNs <= 0 {
				t.Fatalf("accounted %d ops, %d ns", acc.ops, acc.opNs)
			}
			sum := acc.residual() + acc.unattrNs
			for span, ns := range acc.selfNs {
				sum += ns
				if !listed[span+"_ms"] {
					t.Errorf("span %s has no per-layer metric", span)
				}
			}
			if sum != acc.opNs {
				t.Errorf("self times + residual + unattributed = %d ns, op time %d ns", sum, acc.opNs)
			}
			if len(acc.selfNs) == 0 {
				t.Error("no layer spans recorded")
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's per-layer list in step with
// perLayer.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present")
	}
	var cfg struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, m := range cfg.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer:\n%v\n%v", got, want)
	}
}
