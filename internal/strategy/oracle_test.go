package strategy_test

// Reference implementations of RandomMean and OptimalPlan as they were
// before the strategies stopped allocating: every Random trial builds a
// fresh rand.NewSource(seed+i) and rebuilds its candidate list before each
// draw, uniformity is checked object by object, and the Optimal search
// copies a plan per successor. The differential tests pin the production
// code to these, bit for bit.

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/strategy"
)

type oracleRun struct {
	l       *concept.Lattice
	ref     []cable.Label
	labeled *bitset.Set
	cost    strategy.Cost
}

func newOracleRun(l *concept.Lattice, ref []cable.Label) *oracleRun {
	if len(ref) != l.Context().NumObjects() {
		return nil
	}
	for _, lb := range ref {
		if lb == cable.Unlabeled {
			return nil
		}
	}
	return &oracleRun{l: l, ref: ref, labeled: bitset.New(len(ref))}
}

// difference returns a new set holding s \ t.
func difference(s, t *bitset.Set) *bitset.Set {
	u := s.Clone()
	u.DifferenceWith(t)
	return u
}

func (r *oracleRun) unlabeledIn(id int) *bitset.Set {
	return difference(r.l.Concept(id).Extent, r.labeled)
}

func (r *oracleRun) fullyLabeled(id int) bool {
	return r.l.Concept(id).Extent.SubsetOf(r.labeled)
}

func (r *oracleRun) uniformLabel(x *bitset.Set) (cable.Label, bool) {
	label := cable.Unlabeled
	ok := true
	x.Range(func(o int) bool {
		if label == cable.Unlabeled {
			label = r.ref[o]
			return true
		}
		if r.ref[o] != label {
			ok = false
			return false
		}
		return true
	})
	return label, ok && label != cable.Unlabeled
}

func (r *oracleRun) visit(id int) bool {
	r.cost.Inspections++
	un := r.unlabeledIn(id)
	if _, ok := r.uniformLabel(un); !ok {
		return false
	}
	r.cost.Labelings++
	r.labeled.UnionWith(un)
	return true
}

func (r *oracleRun) done() bool { return r.labeled.Len() == len(r.ref) }

func oracleRandom(l *concept.Lattice, ref []cable.Label, rng *rand.Rand, maxOps int) (strategy.Cost, bool) {
	r := newOracleRun(l, ref)
	if r == nil {
		return strategy.Cost{}, false
	}
	if maxOps <= 0 {
		maxOps = 1000 * l.Len()
	}
	for !r.done() {
		var candidates []int
		for _, c := range l.Concepts() {
			if !r.fullyLabeled(c.ID) {
				candidates = append(candidates, c.ID)
			}
		}
		if len(candidates) == 0 {
			break
		}
		r.visit(candidates[rng.Intn(len(candidates))])
		if r.cost.Total() > maxOps {
			return r.cost, false
		}
	}
	return r.cost, true
}

func oracleRandomMean(l *concept.Lattice, ref []cable.Label, seed int64, trials int) (float64, bool) {
	if trials <= 0 {
		return 0, false
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	costs := make([]int, trials)
	failed := make([]bool, trials)
	var wg sync.WaitGroup
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= trials {
					return
				}
				rng := rand.New(rand.NewSource(seed + int64(i)))
				c, ok := oracleRandom(l, ref, rng, 0)
				if !ok {
					failed[i] = true
					return
				}
				costs[i] = c.Total()
			}
		}()
	}
	wg.Wait()
	sum := 0
	for i := 0; i < trials; i++ {
		if failed[i] {
			return 0, false
		}
		sum += costs[i]
	}
	return float64(sum) / float64(trials), true
}

func oracleOptimalPlan(l *concept.Lattice, ref []cable.Label, maxStates int) (strategy.Plan, strategy.Cost, bool) {
	r := newOracleRun(l, ref)
	if r == nil {
		return strategy.Plan{}, strategy.Cost{}, false
	}
	if maxStates <= 0 {
		maxStates = strategy.DefaultOptimalBudget
	}
	n := len(ref)
	start := bitset.New(n)
	if n == 0 {
		return strategy.Plan{}, strategy.Cost{}, true
	}
	type node struct {
		labeled *bitset.Set
		plan    strategy.Plan
	}
	visited := map[string]bool{start.Key(): true}
	frontier := []node{{labeled: start}}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, cur := range frontier {
			for _, c := range l.Concepts() {
				un := difference(c.Extent, cur.labeled)
				if un.Empty() {
					continue
				}
				label, ok := r.uniformLabel(un)
				if !ok {
					continue
				}
				plan := strategy.Plan{Ops: append(append([]strategy.Op(nil), cur.plan.Ops...), strategy.Op{Concept: c.ID, Label: label})}
				succ := bitset.Union(cur.labeled, un)
				if succ.Len() == n {
					k := len(plan.Ops)
					return plan, strategy.Cost{Inspections: k, Labelings: k}, true
				}
				key := succ.Key()
				if visited[key] {
					continue
				}
				visited[key] = true
				if len(visited) > maxStates {
					return strategy.Plan{}, strategy.Cost{}, false
				}
				next = append(next, node{labeled: succ, plan: plan})
			}
		}
		frontier = next
	}
	return strategy.Plan{}, strategy.Cost{}, false
}
