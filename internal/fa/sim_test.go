package fa

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/trace"
)

// randomWildFA is randomFA with a sprinkling of wildcard edges, so the
// differential tests cover the separate wildcard row of the compiled plan.
func randomWildFA(rng *rand.Rand) *FA {
	alpha := []event.Event{
		event.MustParse("a()"),
		event.MustParse("b()"),
		event.MustParse("c()"),
	}
	n := 2 + rng.Intn(5)
	b := NewBuilder("randwild")
	states := b.States(n)
	b.Start(states[0])
	for _, s := range states {
		if rng.Intn(3) == 0 {
			b.Accept(s)
		}
	}
	b.Accept(states[n-1])
	edges := 1 + rng.Intn(2*n)
	for i := 0; i < edges; i++ {
		if rng.Intn(4) == 0 {
			b.WildcardEdge(states[rng.Intn(n)], states[rng.Intn(n)])
		} else {
			b.Edge(states[rng.Intn(n)], alpha[rng.Intn(len(alpha))], states[rng.Intn(n)])
		}
	}
	return b.MustBuild()
}

// randomTraceUnknown is randomTrace over an alphabet that includes events
// the automata never mention, exercising the unknown-symbol (-1) path.
func randomTraceUnknown(rng *rand.Rand, maxLen int) trace.Trace {
	alpha := []string{"a()", "b()", "c()", "zzz()", "X = d(Y)"}
	n := rng.Intn(maxLen + 1)
	events := make([]string, n)
	for i := range events {
		events[i] = alpha[rng.Intn(len(alpha))]
	}
	return trace.ParseEvents("", events...)
}

// checkSimAgainstLegacy pins every compiled entry point to the legacy loops
// on one (FA, trace) pair.
func checkSimAgainstLegacy(t *testing.T, f *FA, tc trace.Trace) {
	t.Helper()
	sim := f.Sim()
	if got, want := sim.Accepts(tc), f.legacyAccepts(tc); got != want {
		t.Fatalf("Sim.Accepts(%q) = %v, legacy %v on\n%s", tc.Key(), got, want, f)
	}
	if got, want := sim.RejectsAt(tc), f.legacyRejectsAt(tc); got != want {
		t.Fatalf("Sim.RejectsAt(%q) = %d, legacy %d on\n%s", tc.Key(), got, want, f)
	}
	wantEx, wantOK := f.legacyExecuted(tc)
	gotEx, gotOK := sim.Executed(tc)
	if gotOK != wantOK || !gotEx.Equal(wantEx) {
		t.Fatalf("Sim.Executed(%q) = %s/%v, legacy %s/%v on\n%s", tc.Key(), gotEx, gotOK, wantEx, wantOK, f)
	}
}

// TestPropSimMatchesLegacy runs the compiled simulator differentially
// against the legacy per-call loops on random FAs (with and without
// wildcards) and random traces (including out-of-alphabet events).
func TestPropSimMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		var f *FA
		if iter%2 == 0 {
			f = randomFA(rng)
		} else {
			f = randomWildFA(rng)
		}
		for k := 0; k < 15; k++ {
			var tc trace.Trace
			switch k % 3 {
			case 0:
				tc = randomTrace(rng, 6)
			case 1:
				tc = randomTraceUnknown(rng, 6)
			default:
				// Sample from the language when possible so the accepting
				// (full forward/backward) path is exercised often.
				if s, ok := f.Sample(rng, 6); ok {
					tc = s
				} else {
					tc = randomTrace(rng, 6)
				}
			}
			checkSimAgainstLegacy(t, f, tc)
		}
	}
}

// TestSimExecutedMatchesBruteForce pins the compiled Executed directly to
// the accepting-run DFS oracle, independent of the legacy implementation.
func TestSimExecutedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 150; iter++ {
		f := randomWildFA(rng)
		sim := f.Sim()
		var tc trace.Trace
		if s, ok := f.Sample(rng, 5); ok && rng.Intn(2) == 0 {
			tc = s
		} else {
			tc = randomTrace(rng, 5)
		}
		got, gotOK := sim.Executed(tc)
		want, wantOK := bruteExecuted(f, tc)
		if gotOK != wantOK || !got.Equal(want) {
			t.Fatalf("iter %d: Sim.Executed(%q) = %s/%v, brute force %s/%v on\n%s",
				iter, tc.Key(), got, gotOK, want, wantOK, f)
		}
	}
}

// FuzzSimDifferential drives the compiled simulator and the legacy loops
// from fuzzed bytes: the input encodes a small automaton and a trace, and
// the two paths must agree on Accepts, RejectsAt, and Executed.
func FuzzSimDifferential(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 2, 0x12, 0x21, 0x0a}, []byte{0, 1, 2, 0})
	f.Add([]byte{2, 0, 0, 0}, []byte{3, 3, 3})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, faBytes, trBytes []byte) {
		if len(faBytes) > 64 || len(trBytes) > 32 {
			return
		}
		alpha := []event.Event{
			event.MustParse("a()"),
			event.MustParse("b()"),
			event.MustParse("X = c(Y)"),
		}
		b := NewBuilder("fuzz")
		n := 1
		if len(faBytes) > 0 {
			n = 1 + int(faBytes[0]%6)
		}
		states := b.States(n)
		b.Start(states[0])
		if len(faBytes) > 1 {
			b.Accept(states[int(faBytes[1])%n])
		} else {
			b.Accept(states[n-1])
		}
		var edgeBytes []byte
		if len(faBytes) > 2 {
			edgeBytes = faBytes[2:]
		}
		// Each edge byte encodes: from = high nibble % n, to = low nibble
		// % n, label cycles through alphabet + wildcard.
		for i, x := range edgeBytes {
			from := states[int(x>>4)%n]
			to := states[int(x&0xf)%n]
			switch i % 4 {
			case 3:
				b.WildcardEdge(from, to)
			default:
				b.Edge(from, alpha[i%4], to)
			}
		}
		fa := b.MustBuild()
		events := make([]event.Event, 0, len(trBytes))
		for _, x := range trBytes {
			if int(x)%4 == 3 {
				events = append(events, event.MustParse("unknown()"))
			} else {
				events = append(events, alpha[int(x)%4])
			}
		}
		tc := trace.Trace{Events: events}
		checkSimAgainstLegacy(t, fa, tc)
	})
}

// stdioFixtureFA builds the small fopen/fread/fclose automaton used by the
// fixture tests.
func stdioFixtureFA(t testing.TB) *FA {
	t.Helper()
	b := NewBuilder("stdio-fixture")
	s := b.States(3)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "X = fopen()", s[1])
	b.EdgeStr(s[1], "fread(X)", s[1])
	b.EdgeStr(s[1], "fwrite(X)", s[1])
	b.EdgeStr(s[1], "fclose(X)", s[2])
	return b.MustBuild()
}

// TestSimSteadyStateZeroAlloc guards the plan's one scratch: once the
// plan is compiled and warm, Accepts and RejectsAt allocate nothing. This
// is the compiled analogue of TestExecutedObsZeroAllocOverhead.
func TestSimSteadyStateZeroAlloc(t *testing.T) {
	obs.Disable()
	f := stdioFixtureFA(t)
	sim := f.Sim()
	tr := trace.ParseEvents("t", "X = fopen()", "fread(X)", "fwrite(X)", "fread(X)", "fclose(X)")
	bad := trace.ParseEvents("t", "X = fopen()", "fread(X)", "pclose(X)")

	if n := testing.AllocsPerRun(200, func() {
		if !sim.Accepts(tr) {
			t.Fatal("trace unexpectedly rejected")
		}
	}); n != 0 {
		t.Errorf("Sim.Accepts allocates %.1f per run in steady state, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if sim.RejectsAt(bad) != 2 {
			t.Fatal("unexpected rejection index")
		}
	}); n != 0 {
		t.Errorf("Sim.RejectsAt allocates %.1f per run in steady state, want 0", n)
	}
}

// TestSimObsZeroAllocOverhead mirrors TestExecutedObsZeroAllocOverhead for
// the compiled path: enabling obs must not change the allocation count of
// a steady-state simulation.
func TestSimObsZeroAllocOverhead(t *testing.T) {
	f := stdioFixtureFA(t)
	sim := f.Sim()
	tr := trace.ParseEvents("t", "X = fopen()", "fread(X)", "fclose(X)")

	obs.Disable()
	disabled := testing.AllocsPerRun(200, func() { sim.Accepts(tr) })

	m := obs.Enable()
	defer obs.Disable()
	m.Histogram("fa.accepts")
	m.Counter("fa.accepts.events")
	enabled := testing.AllocsPerRun(200, func() { sim.Accepts(tr) })

	if enabled != disabled {
		t.Errorf("obs hooks change Sim.Accepts allocations: disabled=%.1f enabled=%.1f", disabled, enabled)
	}
}

// TestSimSharedAcrossGoroutines exercises one compiled plan from 8
// goroutines mixing Accepts, RejectsAt and Executed; `make race` runs it under the race
// detector. Each goroutine checks results against precomputed expectations.
func TestSimSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := randomWildFA(rng)
	sim := f.Sim()
	traces := make([]trace.Trace, 24)
	for i := range traces {
		if s, ok := f.Sample(rng, 6); ok && i%2 == 0 {
			traces[i] = s
		} else {
			traces[i] = randomTrace(rng, 6)
		}
	}
	type expect struct {
		accepts   bool
		rejectsAt int
		executed  string
		ok        bool
	}
	want := make([]expect, len(traces))
	for i, tc := range traces {
		ex, ok := f.legacyExecuted(tc)
		want[i] = expect{f.legacyAccepts(tc), f.legacyRejectsAt(tc), ex.String(), ok}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				i := (w + round) % len(traces)
				tc := traces[i]
				if got := sim.Accepts(tc); got != want[i].accepts {
					errs <- "Accepts mismatch"
					return
				}
				if got := sim.RejectsAt(tc); got != want[i].rejectsAt {
					errs <- "RejectsAt mismatch"
					return
				}
				ex, ok := sim.Executed(tc)
				if ok != want[i].ok || ex.String() != want[i].executed {
					errs <- "Executed mismatch"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSimPlanCachedPerFA checks that the plan compiles once per automaton
// and is shared by shallow copies (WithName), while the wrapper methods
// stay correct.
func TestSimPlanCachedPerFA(t *testing.T) {
	f := stdioFixtureFA(t)
	if f.Sim() != f.Sim() {
		t.Error("Sim() recompiles on every call")
	}
	renamed := f.WithName("other")
	if renamed.Sim() != f.Sim() {
		t.Error("WithName copy does not share the compiled plan")
	}
	tr := trace.ParseEvents("t", "X = fopen()", "fclose(X)")
	if !f.Accepts(tr) || f.RejectsAt(tr) != -1 {
		t.Error("wrapper methods disagree with acceptance")
	}
	if ex, ok := f.Executed(tr); !ok || ex.Len() != 2 {
		t.Errorf("Executed via wrapper = %v len %d, want ok len 2", ok, ex.Len())
	}
}

// TestSimInternerExposesAlphabet sanity-checks the symbol table: every
// non-wildcard label resolves to a distinct dense symbol.
func TestSimInternerExposesAlphabet(t *testing.T) {
	f := stdioFixtureFA(t)
	sim := f.Sim()
	if got, want := sim.numSyms, 4; got != want {
		t.Fatalf("numSyms = %d, want %d", got, want)
	}
	if sim.fa != f {
		t.Error("Sim does not hold the source automaton")
	}
}
