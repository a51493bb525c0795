package exp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/specs"
	"repro/internal/strategy"
)

// GrowthPoint is one (attributes, concepts) observation for the lattice-
// growth analysis.
type GrowthPoint struct {
	Spec     string
	Attrs    int
	Objects  int
	Concepts int
}

// LatticeGrowth collects, for every specification, the reference-FA
// transition count and resulting lattice size — the data behind Section
// 5.2's observation that "the size of the lattices generated for our
// specifications varied roughly linearly with the number of FA
// transitions" despite the exponential worst case. It stops at the first
// error, and checks cfg.Context before each specification.
func LatticeGrowth(cfg Config) ([]GrowthPoint, error) {
	var pts []GrowthPoint
	for _, spec := range specs.All() {
		if err := cfg.ctx().Err(); err != nil {
			return nil, err
		}
		e, err := Prepare(spec, cfg)
		if err != nil {
			return nil, err
		}
		pts = append(pts, GrowthPoint{
			Spec:     spec.Name,
			Attrs:    e.Ref.NumTransitions(),
			Objects:  e.Set.NumClasses(),
			Concepts: e.Lattice.Len(),
		})
	}
	return pts, nil
}

// LinearFit returns the least-squares slope, intercept, and correlation
// coefficient r of concepts against attributes.
func LinearFit(pts []GrowthPoint) (slope, intercept, r float64) {
	n := float64(len(pts))
	if n == 0 {
		return 0, 0, 0
	}
	var sx, sy, sxx, syy, sxy float64
	for _, p := range pts {
		x, y := float64(p.Attrs), float64(p.Concepts)
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	rden := math.Sqrt((n*sxx - sx*sx) * (n*syy - sy*sy))
	if rden != 0 {
		r = (n*sxy - sx*sy) / rden
	}
	return slope, intercept, r
}

// FormatGrowth renders the growth series with its linear fit.
func FormatGrowth(pts []GrowthPoint) string {
	var b strings.Builder
	b.WriteString("Lattice growth: concepts vs reference-FA transitions (Section 5.2)\n")
	fmt.Fprintf(&b, "%-14s %6s %8s %9s\n", "spec", "attrs", "objects", "concepts")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-14s %6d %8d %9d\n", p.Spec, p.Attrs, p.Objects, p.Concepts)
	}
	slope, intercept, r := LinearFit(pts)
	fmt.Fprintf(&b, "least-squares fit: concepts ≈ %.2f·attrs %+.2f (r = %.3f; paper: \"roughly linear\")\n",
		slope, intercept, r)
	return b.String()
}

// ScalePoint is one workload size in the advantage-scaling sweep.
type ScalePoint struct {
	Scenarios int
	Unique    int
	Baseline  int
	Expert    int
	TopDown   int
}

// AdvantageSweep grows one specification's workload and measures how
// Cable's advantage over Baseline scales — Section 5.3's "the advantage of
// using Cable increases as the number of different scenario traces
// increases". It stops at the first error, and checks cfg.Context before
// each size.
func AdvantageSweep(specName string, cfg Config, sizes []int) ([]ScalePoint, error) {
	spec, ok := specs.ByName(specName)
	if !ok {
		return nil, fmt.Errorf("exp: unknown spec %q", specName)
	}
	var pts []ScalePoint
	for _, size := range sizes {
		if err := cfg.ctx().Err(); err != nil {
			return nil, err
		}
		c := cfg
		c.Scale = func(string) int { return size }
		e, err := Prepare(spec, c)
		if err != nil {
			return nil, err
		}
		expert, ok := strategy.Expert(e.Lattice, e.Truth)
		if !ok {
			return nil, fmt.Errorf("exp: Expert failed at size %d", size)
		}
		td, ok := strategy.TopDown(e.Lattice, e.Truth)
		if !ok {
			return nil, fmt.Errorf("exp: TopDown failed at size %d", size)
		}
		pts = append(pts, ScalePoint{
			Scenarios: e.Set.Total(),
			Unique:    e.Set.NumClasses(),
			Baseline:  strategy.Baseline(e.Lattice).Total(),
			Expert:    expert.Total(),
			TopDown:   td.Total(),
		})
	}
	return pts, nil
}

// FormatSweep renders the advantage sweep.
func FormatSweep(specName string, pts []ScalePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cable advantage vs workload size (%s)\n", specName)
	fmt.Fprintf(&b, "%9s %7s %9s %7s %8s %14s\n", "scenarios", "unique", "baseline", "expert", "topdown", "expert/baseline")
	for _, p := range pts {
		fmt.Fprintf(&b, "%9d %7d %9d %7d %8d %14.2f\n",
			p.Scenarios, p.Unique, p.Baseline, p.Expert, p.TopDown,
			float64(p.Expert)/float64(p.Baseline))
	}
	return b.String()
}
