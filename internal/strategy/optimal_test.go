package strategy_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/specs"
	"repro/internal/strategy"
)

// TestOptimalPlanAllocs pins the Optimal search's allocations: its states
// live in one slab whose table and rows double together, so the
// default-seed RegionsBig Table 3 search, which needs exactly 22,111
// states, allocates a few dozen times rather than once per state.
func TestOptimalPlanAllocs(t *testing.T) {
	sp, ok := specs.ByName("RegionsBig")
	if !ok {
		t.Fatal("no RegionsBig spec")
	}
	e, err := exp.Prepare(sp, exp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const states = 22111
	if _, _, ok := strategy.OptimalPlan(e.Lattice, e.Truth, states-1); ok {
		t.Fatalf("OptimalPlan succeeded within %d states, want %d", states-1, states)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, ok := strategy.OptimalPlan(e.Lattice, e.Truth, states); !ok {
			t.Fatalf("OptimalPlan failed within %d states", states)
		}
	})
	if allocs >= 100 {
		t.Fatalf("OptimalPlan allocates %v times over %d states, want < 100", allocs, states)
	}
}
