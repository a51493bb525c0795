package strategy_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/exp"
	"repro/internal/specs"
	"repro/internal/strategy"
	"repro/internal/wellformed"
)

// checkOracles requires RandomMean to return the oracle's mean bit for bit
// with the same ok flag, and OptimalPlan to return the oracle's ops, cost
// and ok under budgets that cut the search short and under the default.
// The budgets of 1000 and 5000 states stop the shipped RegionsBig and
// XtFree searches after their state tables have grown. Where a plan
// exists, the search must also need exactly the oracle's state count: the
// smallest budget under which OptimalPlan succeeds is the oracle's.
func checkOracles(t *testing.T, where string, l *concept.Lattice, ref []cable.Label, seed int64, trials int) {
	t.Helper()
	mean, ok := strategy.RandomMean(l, ref, seed, trials)
	wantMean, wantOK := oracleRandomMean(l, ref, seed, trials)
	if math.Float64bits(mean) != math.Float64bits(wantMean) || ok != wantOK {
		t.Fatalf("%s: RandomMean(seed %d) = %v, %v; oracle %v, %v", where, seed, mean, ok, wantMean, wantOK)
	}
	for _, budget := range []int{1, 2, 5, 1000, 5000, 0} {
		plan, cost, ok := strategy.OptimalPlan(l, ref, budget)
		wantPlan, wantCost, wantOK := oracleOptimalPlan(l, ref, budget)
		if !slices.Equal(plan.Ops, wantPlan.Ops) || cost != wantCost || ok != wantOK {
			t.Fatalf("%s: OptimalPlan(budget %d) = %v, %v, %v; oracle %v, %v, %v",
				where, budget, plan, cost, ok, wantPlan, wantCost, wantOK)
		}
	}
	if _, _, ok := strategy.OptimalPlan(l, ref, 0); !ok {
		return
	}
	lo, hi := 1, strategy.DefaultOptimalBudget
	for lo < hi {
		mid := (lo + hi) / 2
		if _, _, ok := strategy.OptimalPlan(l, ref, mid); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if _, _, ok := oracleOptimalPlan(l, ref, lo); !ok {
		t.Fatalf("%s: OptimalPlan succeeds within %d states, the oracle does not", where, lo)
	}
	if lo > 1 {
		if _, _, ok := oracleOptimalPlan(l, ref, lo-1); ok {
			t.Fatalf("%s: the oracle succeeds within %d states, OptimalPlan needs %d", where, lo-1, lo)
		}
	}
}

// TestOracleShippedSpecs runs the differential check on every shipped
// spec's Table 3 lattice, at the paper's trial count, under the default
// workload seed and two others.
func TestOracleShippedSpecs(t *testing.T) {
	for _, seed := range []int64{exp.DefaultConfig().Seed, 1, 99} {
		cfg := exp.DefaultConfig()
		cfg.Seed = seed
		for _, sp := range specs.All() {
			e, err := exp.Prepare(sp, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkOracles(t, fmt.Sprintf("%s seed %d", sp.Name, seed), e.Lattice, e.Truth, seed, cfg.RandomTrials)
		}
	}
}

// randomLattice builds the lattice of a random context with no objects and
// na attributes. Objects come in runs of run consecutive objects that share
// one random attribute row, each attribute present with probability 1/2.
func randomLattice(rng *rand.Rand, no, na, run int) *concept.Lattice {
	objs := make([]string, no)
	for i := range objs {
		objs[i] = fmt.Sprintf("o%d", i)
	}
	attrs := make([]string, na)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	ctx := concept.NewContext(objs, attrs)
	row := make([]bool, na)
	for o := 0; o < no; o++ {
		if o%run == 0 {
			for a := range row {
				row[a] = rng.Intn(2) == 0
			}
		}
		for a, has := range row {
			if has {
				ctx.Relate(o, a)
			}
		}
	}
	return concept.Build(ctx)
}

// randomLabel returns Good or Bad with probability 1/2 each.
func randomLabel(rng *rand.Rand) cable.Label {
	if rng.Intn(2) == 0 {
		return cable.Good
	}
	return cable.Bad
}

// Property: strategy success coincides with lattice well-formedness,
// Optimal lower-bounds the other strategies, and RandomMean and OptimalPlan
// match their oracles, across random contexts and labelings.
func TestPropStrategiesVsWellFormedness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 120; iter++ {
		no := 1 + rng.Intn(7)
		na := 1 + rng.Intn(6)
		l := randomLattice(rng, no, na, 1)
		ref := make([]cable.Label, no)
		for i := range ref {
			ref[i] = randomLabel(rng)
		}
		wf, _ := wellformed.Check(l, ref)
		checkOracles(t, fmt.Sprintf("iter %d (well-formed %v)", iter, wf), l, ref, int64(iter), 64)
		tdCost, td := strategy.TopDown(l, ref)
		buCost, bu := strategy.BottomUp(l, ref)
		exCost, ex := strategy.Expert(l, ref)
		optCost, opt := strategy.Optimal(l, ref, 0)
		if td != wf || bu != wf || ex != wf || opt != wf {
			t.Fatalf("iter %d: success mismatch wf=%v td=%v bu=%v ex=%v opt=%v\n%s",
				iter, wf, td, bu, ex, opt, l)
		}
		if wf {
			if optCost.Total() > tdCost.Total() || optCost.Total() > buCost.Total() || optCost.Total() > exCost.Total() {
				t.Fatalf("iter %d: Optimal %s beaten (td %s, bu %s, ex %s)",
					iter, optCost, tdCost, buCost, exCost)
			}
			rdMean, rd := strategy.RandomMean(l, ref, int64(iter), 1)
			if !rd || rdMean < float64(optCost.Total()) {
				t.Fatalf("iter %d: one Random trial %v vs Optimal %s (ok=%v)", iter, rdMean, optCost, rd)
			}
		}
	}

	// Contexts of one word, two words and more than two. Objects share
	// rows in runs of 40, so row classes straddle word boundaries and some
	// states differ only past the first word. Labeling objects by their
	// rows is well-formed; labeling each object on its own almost never
	// is. Three attributes keep each lattice to at most eight concepts and
	// each search small.
	seen := map[bool]bool{}
	for _, no := range []int{63, 64, 65, 127, 128, 129, 200} {
		for _, byRow := range []bool{true, false} {
			l := randomLattice(rng, no, 3, 40)
			rowLabel := map[string]cable.Label{}
			ref := make([]cable.Label, no)
			for o := range ref {
				row := l.Context().Attributes(o).Key()
				if _, ok := rowLabel[row]; !ok || !byRow {
					rowLabel[row] = randomLabel(rng)
				}
				ref[o] = rowLabel[row]
			}
			wf, _ := wellformed.Check(l, ref)
			seen[wf] = true
			where := fmt.Sprintf("%d objects (well-formed %v)", no, wf)
			checkOracles(t, where, l, ref, int64(no), 64)
			if _, ok := strategy.Optimal(l, ref, 0); ok != wf {
				t.Fatalf("%s: Optimal ok = %v", where, ok)
			}
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("wide contexts were all well-formed = %v", seen[true])
	}
}

// TestOracleWideLattices runs the differential check on lattices of more
// than 64 concepts, so Optimal's per-state concept masks span more than
// one word. Contexts have 7 to 9 attributes; objects share rows in runs,
// which bounds the labeling states. The strategies' rows are over blocks
// of objects that share a row and a label, and the first four contexts
// have at most 30 distinct rows, so their tables are one word wide; the
// last has more than 64 distinct rows, so its block rows span two words.
// Each lattice is checked under up to three labelings: one random label
// per row (well-formed), one random label per object (not well-formed
// where a run or a repeated row mixes labels), and one fixed by
// attributes a0 to a2, whose search ends within three labelings.
func TestOracleWideLattices(t *testing.T) {
	const (
		byRow = 1 << iota
		byObject
		byAttrs
	)
	cases := []struct{ no, na, run, kinds int }{
		{200, 9, 14, byRow | byObject | byAttrs},
		{120, 9, 8, byRow | byObject | byAttrs},
		{70, 9, 4, byRow | byObject | byAttrs},
		{30, 7, 1, byRow | byAttrs},
		{100, 9, 1, byObject | byAttrs},
	}
	seen := map[bool]bool{}
	mostRows := 0
	for i, c := range cases {
		rng := rand.New(rand.NewSource(int64(2900 + i)))
		l := randomLattice(rng, c.no, c.na, c.run)
		if l.Len() <= 64 {
			t.Fatalf("%d objects, %d attributes: %d concepts, want more than 64", c.no, c.na, l.Len())
		}
		rows := map[string]bool{}
		for o := range c.no {
			rows[l.Context().Attributes(o).Key()] = true
		}
		mostRows = max(mostRows, len(rows))
		for kind := byRow; kind <= byAttrs; kind <<= 1 {
			if c.kinds&kind == 0 {
				continue
			}
			rowLabel := map[string]cable.Label{}
			ref := make([]cable.Label, c.no)
			for o := range ref {
				row := l.Context().Attributes(o)
				switch kind {
				case byRow:
					if _, ok := rowLabel[row.Key()]; !ok {
						rowLabel[row.Key()] = randomLabel(rng)
					}
					ref[o] = rowLabel[row.Key()]
				case byObject:
					ref[o] = randomLabel(rng)
				case byAttrs:
					ref[o] = cable.Good
					if row.Has(0) && row.Has(1) || row.Has(2) {
						ref[o] = cable.Bad
					}
				}
			}
			wf, _ := wellformed.Check(l, ref)
			seen[wf] = true
			where := fmt.Sprintf("%d objects, %d concepts, labeling %d (well-formed %v)", c.no, l.Len(), kind, wf)
			checkOracles(t, where, l, ref, int64(c.no), 64)
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("wide lattices were all well-formed = %v", seen[true])
	}
	if mostRows <= 64 {
		t.Fatalf("no context has more than 64 distinct rows (at most %d)", mostRows)
	}
}
