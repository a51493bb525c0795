package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/mine"
	"repro/internal/specs"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/wellformed"
	"repro/internal/xtrace"
)

// paperRowsPerSecond sizes a run: the rows are the 17 specs under one
// workload seed per cycle, counted from the paper's default seed, so every
// run measures the same rows; the benchmark seed shuffles their order.
const paperRowsPerSecond = 13

// expectedRows pins the warm-up pass: every spec's row under the paper's
// default seed, timing columns dropped.
//
//go:embed testdata/paper_rows.json
var expectedRows []byte

// paperRow is one spec's evaluation row without its timing columns.
type paperRow struct {
	Spec     string         `json:"spec"`
	Classes  int            `json:"classes"`
	Concepts int            `json:"concepts"`
	RefKind  exp.RefKind    `json:"ref_kind"`
	States   int            `json:"ref_states"`
	Table3   exp.Strategies `json:"table3"`
	E2E      exp.E2ERow     `json:"e2e"`
}

// paper is the Table 2/3 pipeline plus the mine → debug → relearn round
// trip, one spec row per op, with no server and no persistence.
type paper struct {
	env
	specs    []specs.Spec
	rows     []paperOp
	expected []paperRow

	pinned, pinFailed int // warm-up rows compared with expected, and mismatches
}

// paperOp is one row: a spec under a workload seed.
type paperOp struct {
	spec specs.Spec
	seed int64
}

func newPaper(e env) (workload, error) {
	w := &paper{env: e, specs: specs.All()}
	if err := json.Unmarshal(expectedRows, &w.expected); err != nil {
		return nil, fmt.Errorf("pinned rows: %w", err)
	}
	cycles := max(1, e.seconds*paperRowsPerSecond/len(w.specs))
	if e.smoke {
		cycles = 1
	}
	for c := 0; c < cycles; c++ {
		for _, sp := range w.specs {
			w.rows = append(w.rows, paperOp{sp, exp.DefaultConfig().Seed + 1 + int64(c)})
		}
	}
	rand.New(rand.NewSource(e.seed)).Shuffle(len(w.rows), func(i, j int) { w.rows[i], w.rows[j] = w.rows[j], w.rows[i] })
	return w, nil
}

func (w *paper) config(seed int64) exp.Config {
	cfg := exp.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// setup is the warm-up pass: every spec under the default seed. Its rows
// are compared with the pinned rows in finish.
func (w *paper) setup() error {
	w.pinned, w.pinFailed = 0, 0
	for i, sp := range w.specs {
		row, _, err := w.row(sp, exp.DefaultConfig())
		if err != nil {
			return err
		}
		w.pinned++
		if checkRow(row) != nil || i >= len(w.expected) || row != w.expected[i] {
			w.pinFailed++
		}
	}
	return nil
}

func (w *paper) ops() int { return len(w.rows) }

func (w *paper) do(i int) (time.Duration, error) {
	row, d, err := w.row(w.rows[i].spec, w.config(w.rows[i].seed))
	if err != nil {
		return d, err
	}
	if w.digest != nil {
		w.digest.Write(mustJSON(row))
	}
	return d, checkRow(row)
}

// row runs one spec's evaluation: Prepare, RunStrategies and EndToEnd.
// In traced runs the same work is then replayed layer by layer.
func (w *paper) row(sp specs.Spec, cfg exp.Config) (paperRow, time.Duration, error) {
	id := w.tr.begin(rowSpan)
	start := time.Now()
	ex, err := exp.Prepare(sp, cfg)
	var st exp.Strategies
	var e2e exp.E2ERow
	if err == nil {
		st, err = ex.RunStrategies(cfg)
	}
	if err == nil {
		e2e, err = exp.EndToEnd(sp, cfg)
	}
	d := time.Since(start)
	w.tr.end(id)
	if err != nil {
		return paperRow{}, d, err
	}
	row := paperRow{
		Spec: sp.Name, Classes: ex.Set.NumClasses(), Concepts: ex.Lattice.Len(),
		RefKind: ex.RefKind, States: ex.Ref.NumStates(), Table3: st, E2E: e2e,
	}
	if w.tr != nil && w.tr.active {
		var rerr error
		w.tr.do(replaySpan, func() { rerr = w.replay(sp, cfg, row) })
		if rerr != nil {
			return row, d, fmt.Errorf("replay: %w", rerr)
		}
	}
	return row, d, nil
}

// checkRow applies EXPERIMENTS.md's order statistics: Optimal, where
// measured, is no worse than any other strategy, and Expert costs at most
// one operation more than Baseline.
func checkRow(r paperRow) error {
	s := r.Table3
	if s.Optimal >= 0 {
		for _, other := range []float64{float64(s.Expert), float64(s.Baseline), float64(s.TopDown), float64(s.BottomUp), s.RandomMean} {
			if float64(s.Optimal) > other {
				return fmt.Errorf("%s: Optimal %d beats nothing: %+v", r.Spec, s.Optimal, s)
			}
		}
	}
	if s.Expert > s.Baseline+1 {
		return fmt.Errorf("%s: Expert %d > Baseline %d + 1", r.Spec, s.Expert, s.Baseline)
	}
	return nil
}

// replay re-runs a row's work through the public calls exp makes, one
// span per layer: workload generation, trace parse, learning, context and
// lattice builds, well-formedness, each strategy, mining, debugging,
// relearning and the final equivalence check.
func (w *paper) replay(sp specs.Spec, cfg exp.Config, want paperRow) error {
	tr := w.tr
	var set *trace.Set
	var truthByKey xtrace.Labeling
	tr.do("xtrace.gen", func() {
		set, truthByKey = xtrace.Generator{Model: sp.Model, Seed: cfg.Seed}.ScenarioSet(exp.DefaultScale(sp.Name))
	})
	var buf bytes.Buffer
	if err := trace.Write(&buf, set); err != nil {
		return err
	}
	var err error
	tr.do("trace.read", func() { set, err = trace.Read(bytes.NewReader(buf.Bytes())) })
	tr.count("trace.read_bytes", float64(buf.Len()))
	if err != nil {
		return err
	}
	truth := make([]cable.Label, set.NumClasses())
	var all []trace.Trace
	for i, c := range set.Classes() {
		truth[i] = cable.Bad
		if truthByKey[c.Rep.Key()] {
			truth[i] = cable.Good
		}
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			all = append(all, t)
		}
	}
	learners := []func() (*learn.Result, error){
		func() (*learn.Result, error) { return learn.DefaultLearner.Learn(sp.Name+"-mined", all) },
		func() (*learn.Result, error) {
			return learn.Learner{K: 3, S: 0.95, Agreement: learn.And}.Learn(sp.Name+"-finer", all)
		},
		func() (*learn.Result, error) { return learn.PTA(sp.Name+"-pta", all) },
	}
	build := func(ref *fa.FA) (*concept.Lattice, error) {
		var cx *concept.Context
		var l *concept.Lattice
		var err error
		tr.do("concept.context", func() {
			cx, err = concept.TraceContextCtx(context.Background(), set.Representatives(), ref, cfg.Workers)
		})
		if err == nil {
			tr.do("concept.build", func() { l, err = concept.BuildCtx(context.Background(), cx, concept.WithWorkers(cfg.Workers)) })
		}
		tr.count("exp.ref_builds", 1)
		return l, err
	}
	var ref *fa.FA
	var lattice *concept.Lattice
	for _, learnFA := range learners {
		var res *learn.Result
		tr.do("learn.learn", func() { res, err = learnFA() })
		if err != nil {
			return err
		}
		l, err := build(res.FA)
		if err != nil {
			return err
		}
		var ok bool
		tr.do("wellformed.check", func() { ok, _ = wellformed.Check(l, truth) })
		if ok {
			ref, lattice = res.FA, l
			break
		}
	}
	if lattice == nil {
		return fmt.Errorf("%s: no well-formed reference", sp.Name)
	}
	for i := 0; i < 3; i++ { // Prepare's best-of-three timing builds
		if _, err := build(ref); err != nil {
			return err
		}
	}
	tr.count("learn.states", float64(ref.NumStates()))
	tr.count("concept.lattices", 1)
	tr.count("concept.concepts", float64(lattice.Len()))
	tr.count("concept.attributes", float64(lattice.Context().NumAttributes()))

	var st exp.Strategies
	tr.do("strategy.expert", func() {
		c, _ := strategy.Expert(lattice, truth)
		st.Expert = c.Total()
	})
	tr.do("strategy.other", func() {
		st.Baseline = strategy.Baseline(lattice).Total()
		td, _ := strategy.TopDown(lattice, truth)
		bu, _ := strategy.BottomUp(lattice, truth)
		st.TopDown, st.BottomUp = td.Total(), bu.Total()
	})
	tr.do("strategy.random", func() { st.RandomMean, _ = strategy.RandomMean(lattice, truth, cfg.Seed, cfg.RandomTrials) })
	st.Optimal = -1
	tr.do("strategy.optimal", func() {
		if c, ok := strategy.Optimal(lattice, truth, cfg.OptimalBudget); ok {
			st.Optimal = c.Total()
		}
	})
	tr.count("strategy.optimal_runs", 1)
	if st.Optimal < 0 {
		tr.count("strategy.optimal_over_budget", 1)
	}
	if st != want.Table3 || lattice.Len() != want.Concepts {
		return fmt.Errorf("%s: replayed row %+v differs from %+v", sp.Name, st, want.Table3)
	}
	return w.replayEndToEnd(sp, cfg, want.E2E)
}

// replayEndToEnd re-runs exp.EndToEnd's round trip.
func (w *paper) replayEndToEnd(sp specs.Spec, cfg exp.Config, want exp.E2ERow) error {
	tr := w.tr
	var runs []mine.Run
	var truth xtrace.Labeling
	tr.do("xtrace.gen", func() {
		runs, truth = xtrace.Generator{Model: sp.Model, Seed: cfg.Seed}.Runs(exp.DefaultScale(sp.Name)/2, 2)
	})
	miner := mine.Miner{FrontEnd: mine.FrontEnd{Seeds: sp.Model.SeedOps(), FollowDerived: true}}
	var mined *fa.FA
	var scenarios *trace.Set
	var err error
	tr.do("mine.mine", func() { mined, scenarios, err = miner.Mine(sp.Name+"-mined", runs) })
	if err != nil {
		return err
	}
	var session *core.Session
	tr.do("core.debug_mined", func() { session, err = core.DebugMined(mined, scenarios) })
	if err != nil {
		return err
	}
	tr.do("cable.label", func() {
		for i, t := range session.Representatives() {
			label := cable.Bad
			if truth[t.Key()] {
				label = cable.Good
			}
			if err = session.LabelTrace(i, label); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var relearned *fa.FA
	tr.do("core.relearn", func() { relearned, err = core.RelearnGood(session, miner) })
	if err != nil {
		return err
	}
	tr.do("fa.sim", func() {
		minedSim, relearnedSim := mined.Sim(), relearned.Sim()
		for _, t := range session.Representatives() {
			minedSim.Accepts(t)
			relearnedSim.Accepts(t)
		}
		for _, t := range sp.FA.Enumerate(10, 300) {
			relearnedSim.Accepts(t)
		}
	})
	var eq bool
	tr.do("fa.equivalent", func() { eq, err = fa.Equivalent(relearned, sp.FA) })
	if err != nil {
		return err
	}
	if eq != want.Equivalent || scenarios.NumClasses() != want.UniqueScenarios {
		return fmt.Errorf("%s: replayed round trip differs from the row", sp.Name)
	}
	return nil
}

func (w *paper) finish() (int, int, error) { return w.pinned, w.pinFailed, nil }

func (w *paper) close() {}
