package fa

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/trace"
)

// randomFA generates a small random NFA over a fixed alphabet.
func randomFA(rng *rand.Rand) *FA {
	alpha := []event.Event{
		event.MustParse("a()"),
		event.MustParse("b()"),
		event.MustParse("c()"),
	}
	n := 2 + rng.Intn(5)
	b := NewBuilder("rand")
	states := b.States(n)
	b.Start(states[0])
	if rng.Intn(3) == 0 && n > 1 {
		b.Start(states[1])
	}
	for _, s := range states {
		if rng.Intn(3) == 0 {
			b.Accept(s)
		}
	}
	// Guarantee at least one accepting state so languages are non-trivial
	// more often.
	b.Accept(states[n-1])
	edges := 1 + rng.Intn(2*n)
	for i := 0; i < edges; i++ {
		b.Edge(states[rng.Intn(n)], alpha[rng.Intn(len(alpha))], states[rng.Intn(n)])
	}
	return b.MustBuild()
}

// determinized is the trimmed automaton of f's DFA over f's own alphabet.
func determinized(t testing.TB, f *FA) *FA {
	t.Helper()
	d, err := Determinize(f, f.Alphabet())
	if err != nil {
		t.Fatal(err)
	}
	return d.FA(f.Name()).Trim()
}

// intersect is the trimmed product of f and g over their joint alphabet,
// accepting where both do.
func intersect(t testing.TB, f, g *FA) *FA {
	t.Helper()
	alpha := JointAlphabet(f, g)
	df, err := Determinize(f, alpha)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := Determinize(g, alpha)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Product(df, dg, func(x, y bool) bool { return x && y })
	if err != nil {
		t.Fatal(err)
	}
	return p.FA(f.Name() + "&" + g.Name()).Trim()
}

func randomTrace(rng *rand.Rand, maxLen int) trace.Trace {
	alpha := []string{"a()", "b()", "c()"}
	n := rng.Intn(maxLen + 1)
	events := make([]string, n)
	for i := range events {
		events[i] = alpha[rng.Intn(len(alpha))]
	}
	return trace.ParseEvents("", events...)
}

func TestPropDeterminizeMinimizePreserveLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 150; iter++ {
		f := randomFA(rng)
		d := determinized(t, f)
		m, err := Minimize(f)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20; k++ {
			tc := randomTrace(rng, 6)
			want := f.Accepts(tc)
			if d.Accepts(tc) != want {
				t.Fatalf("iter %d: determinize changed acceptance of %q on\n%s", iter, tc.Key(), f)
			}
			if m.Accepts(tc) != want {
				t.Fatalf("iter %d: minimize changed acceptance of %q on\n%s", iter, tc.Key(), f)
			}
		}
	}
}

func TestPropBooleanOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alpha, _ := event.ParseAll("a()", "b()", "c()")
	for iter := 0; iter < 100; iter++ {
		f, g := randomFA(rng), randomFA(rng)
		d, err := Determinize(f, alpha)
		if err != nil {
			t.Fatal(err)
		}
		comp := d.Complement()
		inter := intersect(t, f, g)
		uni := Union(f, g)
		for k := 0; k < 20; k++ {
			tc := randomTrace(rng, 6)
			af, ag := f.Accepts(tc), g.Accepts(tc)
			if comp.Accepts(tc) == af {
				t.Fatalf("iter %d: complement agrees on %q", iter, tc.Key())
			}
			if inter.Accepts(tc) != (af && ag) {
				t.Fatalf("iter %d: intersect wrong on %q", iter, tc.Key())
			}
			if uni.Accepts(tc) != (af || ag) {
				t.Fatalf("iter %d: union wrong on %q", iter, tc.Key())
			}
		}
	}
}

func TestPropMinimalIsMinimal(t *testing.T) {
	// Minimizing twice changes nothing, and the result of Minimize is never
	// larger than the result of Determinize.
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 80; iter++ {
		f := randomFA(rng)
		m1, err := Minimize(f)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := Minimize(m1)
		if err != nil {
			t.Fatal(err)
		}
		if m2.NumStates() != m1.NumStates() {
			t.Fatalf("iter %d: re-minimization changed size %d -> %d", iter, m1.NumStates(), m2.NumStates())
		}
		if d := determinized(t, f); m1.NumStates() > d.NumStates() {
			t.Fatalf("iter %d: minimal (%d) bigger than determinized (%d)", iter, m1.NumStates(), d.NumStates())
		}
	}
}

func TestPropEquivalenceIsLanguageEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		f, g := randomFA(rng), randomFA(rng)
		eq, err := Equivalent(f, g)
		if err != nil {
			t.Fatal(err)
		}
		// Spot-check with bounded enumeration both ways.
		disagree := false
		for _, tc := range f.Enumerate(5, 100) {
			if !g.Accepts(tc) {
				disagree = true
				break
			}
		}
		if !disagree {
			for _, tc := range g.Enumerate(5, 100) {
				if !f.Accepts(tc) {
					disagree = true
					break
				}
			}
		}
		if eq && disagree {
			t.Fatalf("iter %d: Equivalent=true but languages differ", iter)
		}
		// The converse direction (disagree=false but eq=false) can be a
		// difference beyond length 5, so it is not checked.
	}
}

// bruteExecuted enumerates all accepting runs via DFS and unions their
// transitions — an oracle for Executed on short traces.
func bruteExecuted(f *FA, t trace.Trace) (*bitset.Set, bool) {
	out := bitset.New(f.NumTransitions())
	accepted := false
	var dfs func(state State, i int, path []int)
	dfs = func(state State, i int, path []int) {
		if i == len(t.Events) {
			if f.accept.Has(int(state)) {
				accepted = true
				for _, ti := range path {
					out.Add(ti)
				}
			}
			return
		}
		key := t.Events[i].String()
		for _, ti := range f.byFrom[state] {
			tr := f.trans[ti]
			if IsWildcard(tr.Label) || tr.Label.String() == key {
				dfs(tr.To, i+1, append(path, ti))
			}
		}
	}
	for _, s := range f.StartStates() {
		dfs(s, 0, nil)
	}
	return out, accepted
}

func TestPropExecutedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		f := randomFA(rng)
		var tc trace.Trace
		// Half the time, sample from the language to exercise acceptance.
		if s, ok := f.Sample(rng, 5); ok && rng.Intn(2) == 0 {
			tc = s
		} else {
			tc = randomTrace(rng, 5)
		}
		got, gotOK := f.Executed(tc)
		want, wantOK := bruteExecuted(f, tc)
		if gotOK != wantOK || !got.Equal(want) {
			t.Fatalf("iter %d: Executed(%q) = %s/%v, brute force %s/%v on\n%s",
				iter, tc.Key(), got, gotOK, want, wantOK, f)
		}
		if gotOK != f.Accepts(tc) {
			t.Fatalf("iter %d: Executed ok disagrees with Accepts", iter)
		}
	}
}

func TestPropEnumerateSound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 60; iter++ {
		f := randomFA(rng)
		for _, tc := range f.Enumerate(4, 60) {
			if !f.Accepts(tc) {
				t.Fatalf("iter %d: enumerated trace %q rejected", iter, tc.Key())
			}
		}
	}
}

func TestPropEnumerateComplete(t *testing.T) {
	// Every accepted trace up to the bound appears in an unlimited
	// enumeration: cross-check by generating all traces up to length 3.
	rng := rand.New(rand.NewSource(31))
	alpha := []string{"a()", "b()", "c()"}
	var all []trace.Trace
	var gen func(prefix []string)
	gen = func(prefix []string) {
		all = append(all, trace.ParseEvents("", prefix...))
		if len(prefix) == 3 {
			return
		}
		for _, a := range alpha {
			gen(append(prefix, a))
		}
	}
	gen(nil)
	for iter := 0; iter < 40; iter++ {
		f := randomFA(rng)
		enum := map[string]bool{}
		for _, tc := range f.Enumerate(3, 1<<20) {
			enum[tc.Key()] = true
		}
		for _, tc := range all {
			if f.Accepts(tc) && !enum[tc.Key()] {
				t.Fatalf("iter %d: accepted trace %q missing from enumeration", iter, tc.Key())
			}
		}
	}
}
