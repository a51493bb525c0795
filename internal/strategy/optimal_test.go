package strategy_test

import (
	"math"
	"testing"

	"repro/internal/exp"
	"repro/internal/specs"
	"repro/internal/strategy"
)

// TestOptimalPlanAllocs pins the Optimal search's allocations. The
// default-seed RegionsBig Table 3 search needs exactly 22,111 states; its
// table has one word per state, so the search runs on a pooled wordSlab
// and a warm search allocates its table's two slabs and its plan. The
// count is the fewest over several searches, because under -race
// sync.Pool drops a quarter of what it is given, so a slab is built again
// at random.
func TestOptimalPlanAllocs(t *testing.T) {
	const maxAllocs = 4 // 3: the two slabs and the plan
	e := prepare(t, "RegionsBig")
	const states = 22111
	if _, _, ok := strategy.OptimalPlan(e.Lattice, e.Truth, states-1); ok {
		t.Fatalf("OptimalPlan succeeded within %d states, want %d", states-1, states)
	}
	fewest := math.Inf(1)
	for range 10 {
		fewest = min(fewest, testing.AllocsPerRun(1, func() {
			if _, _, ok := strategy.OptimalPlan(e.Lattice, e.Truth, states); !ok {
				t.Fatalf("OptimalPlan failed within %d states", states)
			}
		}))
	}
	if fewest > maxAllocs {
		t.Fatalf("OptimalPlan allocates %v times over %d states, want at most %d", fewest, states, maxAllocs)
	}
}

// TestRandomMeanAllocs pins what a RandomMean call allocates: its table's
// two slabs, which also hold the candidate lists and the draw table, and
// nothing per trial.
func TestRandomMeanAllocs(t *testing.T) {
	const maxAllocs = 2
	e := prepare(t, "XtFree")
	allocs := testing.AllocsPerRun(5, func() {
		if _, ok := strategy.RandomMean(e.Lattice, e.Truth, 1, 64); !ok {
			t.Fatal("RandomMean failed")
		}
	})
	if allocs > maxAllocs {
		t.Fatalf("RandomMean allocates %v times, want at most %d", allocs, maxAllocs)
	}
}

// prepare returns the default-seed Table 3 inputs of the named spec.
func prepare(t *testing.T, name string) *exp.Experiment {
	t.Helper()
	sp, ok := specs.ByName(name)
	if !ok {
		t.Fatalf("no %s spec", name)
	}
	e, err := exp.Prepare(sp, exp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}
