package fa_test

import (
	"testing"

	"repro/internal/fa"
	"repro/internal/specs"
)

// x11FA is the union of every corpus specification — the X11-scale
// automaton the speclint bench lane measures (dozens of states, ~70
// labels). bigFA unions the program models too (good and bad scenarios),
// roughly doubling the state count.
func x11FA(b *testing.B) *fa.FA {
	all := specs.All()
	out := all[0].FA
	for _, sp := range all[1:] {
		out = fa.Union(out, sp.FA)
	}
	return out
}

func bigFA(b *testing.B) *fa.FA {
	all := specs.All()
	out := all[0].FA
	for _, sp := range all {
		prog, err := specs.ProgramFA(sp.Name, sp.Model)
		if err != nil {
			b.Fatal(err)
		}
		out = fa.Union(out, prog)
	}
	return out
}

func BenchmarkLangDeterminize(b *testing.B) {
	for _, tc := range []struct {
		name string
		f    *fa.FA
	}{{"x11", x11FA(b)}, {"big", bigFA(b)}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fa.Determinize(tc.f, tc.f.Alphabet()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLangMinimize(b *testing.B) {
	for _, tc := range []struct {
		name string
		f    *fa.FA
	}{{"x11", x11FA(b)}, {"big", bigFA(b)}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fa.Minimize(tc.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLangInclusion measures the witness-producing inclusion check —
// the speclint v2 hot path — between a seeded buggy spec and its
// reference (x11) and between the big program-model union and the spec
// union (big; inclusion fails, so a witness is extracted every time).
func BenchmarkLangInclusion(b *testing.B) {
	sp := specs.All()[0]
	spBuggy := buggy(b, sp)
	x11, big := x11FA(b), bigFA(b)
	b.Run("x11", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inc, _, err := fa.Includes(spBuggy, sp.FA)
			if err != nil {
				b.Fatal(err)
			}
			if inc {
				b.Fatalf("buggy %s unexpectedly included in the reference", sp.Name)
			}
		}
	})
	b.Run("big", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := fa.Includes(big, x11); err != nil {
				b.Fatal(err)
			}
		}
	})
}
