package concept

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/fa"
	"repro/internal/trace"
)

func randomContext(rng *rand.Rand, maxObjs, maxAttrs int) *Context {
	no := 1 + rng.Intn(maxObjs)
	na := 1 + rng.Intn(maxAttrs)
	objs := make([]string, no)
	for i := range objs {
		objs[i] = fmt.Sprintf("o%d", i)
	}
	attrs := make([]string, na)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	c := NewContext(objs, attrs)
	for o := 0; o < no; o++ {
		for a := 0; a < na; a++ {
			if rng.Intn(3) == 0 {
				c.Relate(o, a)
			}
		}
	}
	return c
}

func TestPropBuildersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 200; iter++ {
		c := randomContext(rng, 10, 8)
		opt, naive := Build(c), BuildNaive(c)
		if !equalLattices(opt, naive) {
			t.Fatalf("iter %d: builders disagree on\n%s\nincremental:\n%s\nnaive:\n%s",
				iter, c, opt, naive)
		}
		// equalLattices covers concepts and cover edges up to renumbering; check
		// top and bottom by their defining sets too.
		if !opt.Concept(opt.Top()).Extent.Equal(naive.Concept(naive.Top()).Extent) {
			t.Fatalf("iter %d: top extents disagree", iter)
		}
		if !opt.Concept(opt.Bottom()).Intent.Equal(naive.Concept(naive.Bottom()).Intent) {
			t.Fatalf("iter %d: bottom intents disagree", iter)
		}
		checkLatticeInvariants(t, opt)
		checkLatticeInvariants(t, naive)
	}
}

// checkLatticeInvariants is the complete-lattice sanity sweep that used to
// run (as a panic guard) inside linkCovers; it now lives in tests only.
func checkLatticeInvariants(t *testing.T, l *Lattice) {
	t.Helper()
	for _, c := range l.Concepts() {
		// Every concept's own intent must resolve through the index — the
		// closed-intent invariant that Find/Meet/Join rely on. Production
		// code reports a miss via ok=false; here a miss is a hard failure.
		if id, ok := l.byIntent(c.Intent); !ok || id != c.ID {
			t.Fatalf("concept %d: intent not in index (not closed?)", c.ID)
		}
		if len(l.Parents(c.ID)) == 0 && c.ID != l.Top() {
			t.Fatalf("concept %d has no parents but is not the top", c.ID)
		}
		if len(l.Children(c.ID)) == 0 && c.ID != l.Bottom() {
			t.Fatalf("concept %d has no children but is not the bottom", c.ID)
		}
		for _, p := range l.Parents(c.ID) {
			if !c.Extent.ProperSubsetOf(l.Concept(p).Extent) {
				t.Fatalf("parent %d of %d does not strictly contain it", p, c.ID)
			}
			// Cover minimality: nothing strictly between.
			for _, mid := range l.Concepts() {
				if mid.ID != c.ID && mid.ID != p &&
					c.Extent.ProperSubsetOf(mid.Extent) &&
					mid.Extent.ProperSubsetOf(l.Concept(p).Extent) {
					t.Fatalf("concept %d lies between %d and its cover %d", mid.ID, c.ID, p)
				}
			}
		}
	}
}

// TestPropIndexedQueriesMatchScan pits the hash-index-backed queries
// against brute-force linear scans over all concepts.
func TestPropIndexedQueriesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 100; iter++ {
		c := randomContext(rng, 10, 8)
		l := Build(c)
		// byIntent (via Find): scan for the concept with intent σ(X).
		for trial := 0; trial < 5; trial++ {
			x := bitset.New(c.NumObjects())
			for o := 0; o < c.NumObjects(); o++ {
				if rng.Intn(2) == 0 {
					x.Add(o)
				}
			}
			intent := c.Sigma(x)
			want := -1
			for _, cc := range l.Concepts() {
				if cc.Intent.Equal(intent) {
					want = cc.ID
					break
				}
			}
			got, ok := l.Find(x)
			if !ok {
				t.Fatalf("iter %d: Find(%s) not ok on its own lattice", iter, x)
			}
			if got != want {
				t.Fatalf("iter %d: Find(%s) = %d, scan = %d", iter, x, got, want)
			}
		}
		// ObjectConcept: minimal concept whose extent contains o.
		for o := 0; o < c.NumObjects(); o++ {
			got := l.ObjectConcept(o)
			for _, cc := range l.Concepts() {
				if cc.Extent.Has(o) && cc.Extent.ProperSubsetOf(l.Concept(got).Extent) {
					t.Fatalf("iter %d: ObjectConcept(%d) = %d is not minimal (%d smaller)", iter, o, got, cc.ID)
				}
			}
			if !l.Concept(got).Extent.Has(o) {
				t.Fatalf("iter %d: ObjectConcept(%d) lacks the object", iter, o)
			}
		}
		// AttributeConcept: maximal concept whose intent contains a.
		for a := 0; a < c.NumAttributes(); a++ {
			got := l.AttributeConcept(a)
			for _, cc := range l.Concepts() {
				if cc.Intent.Has(a) && l.Concept(got).Extent.ProperSubsetOf(cc.Extent) {
					t.Fatalf("iter %d: AttributeConcept(%d) = %d is not maximal (%d larger)", iter, a, got, cc.ID)
				}
			}
			if !l.Concept(got).Intent.Has(a) {
				t.Fatalf("iter %d: AttributeConcept(%d) lacks the attribute", iter, a)
			}
		}
		// Meet/Join: scan for the greatest lower / least upper bound.
		for trial := 0; trial < 10; trial++ {
			a, b := rng.Intn(l.Len()), rng.Intn(l.Len())
			m, mok := l.Meet(a, b)
			j, jok := l.Join(a, b)
			if !mok || !jok {
				t.Fatalf("iter %d: Meet/Join(%d,%d) not ok on valid IDs", iter, a, b)
			}
			for _, x := range l.Concepts() {
				if l.Leq(x.ID, a) && l.Leq(x.ID, b) && !l.Leq(x.ID, m) {
					t.Fatalf("iter %d: Meet(%d,%d)=%d not greatest", iter, a, b, m)
				}
				if l.Leq(a, x.ID) && l.Leq(b, x.ID) && !l.Leq(j, x.ID) {
					t.Fatalf("iter %d: Join(%d,%d)=%d not least", iter, a, b, j)
				}
			}
			if !l.Leq(m, a) || !l.Leq(m, b) || !l.Leq(a, j) || !l.Leq(b, j) {
				t.Fatalf("iter %d: Meet/Join not bounds", iter)
			}
		}
	}
}

func TestPropConceptsAreFixpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 100; iter++ {
		c := randomContext(rng, 12, 8)
		l := Build(c)
		for _, cc := range l.Concepts() {
			if !c.Sigma(cc.Extent).Equal(cc.Intent) {
				t.Fatalf("iter %d: σ(extent) != intent for c%d", iter, cc.ID)
			}
			if !c.Tau(cc.Intent).Equal(cc.Extent) {
				t.Fatalf("iter %d: τ(intent) != extent for c%d", iter, cc.ID)
			}
		}
	}
}

func TestPropGaloisConnection(t *testing.T) {
	// σ and τ form a Galois connection: X ⊆ τ(Y) iff Y ⊆ σ(X); also the
	// closure facts X ⊆ τ(σ(X)) and σ = σ∘τ∘σ.
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 200; iter++ {
		c := randomContext(rng, 10, 8)
		x := bitset.New(c.NumObjects())
		for o := 0; o < c.NumObjects(); o++ {
			if rng.Intn(2) == 0 {
				x.Add(o)
			}
		}
		y := bitset.New(c.NumAttributes())
		for a := 0; a < c.NumAttributes(); a++ {
			if rng.Intn(2) == 0 {
				y.Add(a)
			}
		}
		if x.SubsetOf(c.Tau(y)) != y.SubsetOf(c.Sigma(x)) {
			t.Fatalf("iter %d: Galois connection violated", iter)
		}
		if !x.SubsetOf(c.Tau(c.Sigma(x))) {
			t.Fatalf("iter %d: X ⊄ τσ(X)", iter)
		}
		if !c.Sigma(c.Tau(c.Sigma(x))).Equal(c.Sigma(x)) {
			t.Fatalf("iter %d: στσ != σ", iter)
		}
	}
}

func TestPropEveryClosureIsAConcept(t *testing.T) {
	// For every subset X of objects, (τσ(X), σ(X)) must appear in the
	// lattice. Checked exhaustively for small contexts.
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 50; iter++ {
		c := randomContext(rng, 6, 6)
		l := Build(c)
		byIntent := map[string]*Concept{}
		for _, cc := range l.Concepts() {
			byIntent[cc.Intent.Key()] = cc
		}
		n := c.NumObjects()
		for mask := 0; mask < 1<<uint(n); mask++ {
			x := bitset.New(n)
			for o := 0; o < n; o++ {
				if mask&(1<<uint(o)) != 0 {
					x.Add(o)
				}
			}
			intent := c.Sigma(x)
			cc, ok := byIntent[intent.Key()]
			if !ok {
				t.Fatalf("iter %d: closure of %s missing from lattice", iter, x)
			}
			if !cc.Extent.Equal(c.Tau(intent)) {
				t.Fatalf("iter %d: wrong extent for closure of %s", iter, x)
			}
		}
	}
}

func TestPropLatticeSizeBound(t *testing.T) {
	// |lattice| ≤ 2^min(|O|, |A|), and ≤ 2^k·|O|+1-ish where k bounds row
	// size; we check the hard bound.
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 60; iter++ {
		c := randomContext(rng, 8, 8)
		l := Build(c)
		m := c.NumObjects()
		if c.NumAttributes() < m {
			m = c.NumAttributes()
		}
		if l.Len() > 1<<uint(m)+1 {
			t.Fatalf("iter %d: lattice size %d exceeds bound", iter, l.Len())
		}
	}
}

func TestTraceContext(t *testing.T) {
	// The Section 2 stdio violations against the Figure 3-style reference:
	// cluster by executed transitions.
	b := fa.NewBuilder("ref")
	s := b.States(1)
	b.Start(s[0])
	b.Accept(s[0])
	b.EdgeStr(s[0], "X = fopen()", s[0])
	b.EdgeStr(s[0], "X = popen()", s[0])
	b.EdgeStr(s[0], "pclose(X)", s[0])
	b.EdgeStr(s[0], "fread(X)", s[0])
	ref := b.MustBuild()

	traces := []trace.Trace{
		trace.ParseEvents("v1", "X = popen()", "pclose(X)"),
		trace.ParseEvents("v2", "X = popen()", "fread(X)"),
		trace.ParseEvents("v3", "X = fopen()"),
	}
	ctx, err := TraceContext(traces, ref)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.NumObjects() != 3 || ctx.NumAttributes() != 4 {
		t.Fatalf("context shape %dx%d", ctx.NumObjects(), ctx.NumAttributes())
	}
	// v1 executes popen (attr 1) and pclose (attr 2).
	if !ctx.Has(0, 1) || !ctx.Has(0, 2) || ctx.Has(0, 0) || ctx.Has(0, 3) {
		t.Errorf("v1 row wrong: %s", ctx.Attributes(0))
	}
	l, err := BuildFromTraces(traces, ref)
	if err != nil {
		t.Fatal(err)
	}
	// The two popen traces share a concept whose intent includes the popen
	// transition.
	id, ok := l.Find(bitset.FromSlice([]int{0, 1}))
	if !ok {
		t.Fatal("Find not ok on freshly built lattice")
	}
	if !l.Concept(id).Intent.Has(1) {
		t.Errorf("popen concept intent = %s", l.Concept(id).Intent)
	}
	if l.Concept(id).Extent.Has(2) {
		t.Errorf("fopen trace in popen concept")
	}
}

func TestTraceContextRejectsUnrecognized(t *testing.T) {
	b := fa.NewBuilder("tiny")
	s := b.States(1)
	b.Start(s[0])
	b.Accept(s[0])
	b.EdgeStr(s[0], "a()", s[0])
	ref := b.MustBuild()
	_, err := TraceContext([]trace.Trace{trace.ParseEvents("bad", "zzz()")}, ref)
	if err == nil {
		t.Fatal("TraceContext accepted unrecognized trace")
	}
}

func TestTraceContextNamesDefault(t *testing.T) {
	ref := fa.Unordered(nil)
	ctx, err := TraceContext([]trace.Trace{{}}, ref)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.ObjectName(0) != "t0" {
		t.Errorf("default object name = %q", ctx.ObjectName(0))
	}
}
