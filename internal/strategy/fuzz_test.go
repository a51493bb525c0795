package strategy_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/strategy"
)

// FuzzStrategiesMatchOracle decodes its input into a context of at most
// 12 objects × 8 attributes, a labeling over three labels, a seed, a trial
// count of at most 8 and an Optimal budget, and requires RandomMean and
// OptimalPlan to return what their oracles return, whether or not the
// lattice is well-formed for the labeling.
func FuzzStrategiesMatchOracle(f *testing.F) {
	f.Add([]byte{5, 3, 1, 2, 4, 3, 6, 0b10101, 0, 7, 3, 0})
	f.Add([]byte{11, 7, 0xff, 0x0f, 0xf0, 0x33, 0xcc, 0x55, 0xaa, 1, 2, 4, 8, 16, 0x5a, 0x03, 9, 7, 40})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 1})
	// Objects 0 and 1 share a row under different labels: two blocks that
	// sit in the same extents.
	f.Add([]byte{2, 1, 1, 1, 2, 0, 1, 0, 0, 7, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		no, na := 1+next()%12, 1+next()%8
		objs := make([]string, no)
		for i := range objs {
			objs[i] = fmt.Sprintf("o%d", i)
		}
		attrs := make([]string, na)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("a%d", i)
		}
		ctx := concept.NewContext(objs, attrs)
		for o := range objs {
			row := next()
			for a := range attrs {
				if row&(1<<a) != 0 {
					ctx.Relate(o, a)
				}
			}
		}
		labels := []cable.Label{cable.Good, cable.Bad, "odd"}
		ref := make([]cable.Label, no)
		for o := range ref {
			ref[o] = labels[next()%len(labels)]
		}
		seed := int64(next()<<8 | next())
		trials := 1 + next()%8
		budget := next() * 4 // 0 is the default budget
		l := concept.Build(ctx)

		mean, ok := strategy.RandomMean(l, ref, seed, trials)
		wantMean, wantOK := oracleRandomMean(l, ref, seed, trials)
		if math.Float64bits(mean) != math.Float64bits(wantMean) || ok != wantOK {
			t.Fatalf("RandomMean(seed %d, %d trials) = %v, %v; oracle %v, %v", seed, trials, mean, ok, wantMean, wantOK)
		}
		plan, cost, ok := strategy.OptimalPlan(l, ref, budget)
		wantPlan, wantCost, wantOK := oracleOptimalPlan(l, ref, budget)
		if !slices.Equal(plan.Ops, wantPlan.Ops) || cost != wantCost || ok != wantOK {
			t.Fatalf("OptimalPlan(budget %d) = %v, %v, %v; oracle %v, %v, %v",
				budget, plan, cost, ok, wantPlan, wantCost, wantOK)
		}
	})
}
