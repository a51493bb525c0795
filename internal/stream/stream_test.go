package stream

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/scanio"
)

// protocolFA builds the open/use*/close resource protocol used across the
// stream tests: open leads to a use-loop, close is the only accepting exit.
func protocolFA(t testing.TB) *fa.FA {
	t.Helper()
	b := fa.NewBuilder("proto")
	s := b.States(3)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "X = open()", s[1])
	b.EdgeStr(s[1], "use(X)", s[1])
	b.EdgeStr(s[1], "close(X)", s[2])
	return b.MustBuild()
}

func feedAll(t *testing.T, c *Checker, evs ...string) []Violation {
	t.Helper()
	var out []Violation
	for _, s := range evs {
		v, fired, err := c.Feed(event.MustParse(s))
		if err != nil {
			t.Fatalf("Feed(%s): %v", s, err)
		}
		if fired {
			out = append(out, v)
		}
	}
	return out
}

func TestCheckerViolationAtReject(t *testing.T) {
	c := New(protocolFA(t).Sim(), Config{})
	vs := feedAll(t, c, "X = open()", "use(X)", "fclose(X)")
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	v := vs[0]
	if v.At != 2 || v.Offset != 2 || v.Truncated || v.Incomplete() {
		t.Fatalf("violation shape: %+v", v)
	}
	if got := v.Trace.Key(); got != "X = open(); use(X); fclose(X)" {
		t.Fatalf("window trace = %q", got)
	}
	if !strings.Contains(v.String(), "violates at event 2") {
		t.Fatalf("String() = %q", v.String())
	}
	// The checker reset: a clean protocol instance now runs to acceptance.
	if more := feedAll(t, c, "X = open()", "close(X)"); len(more) != 0 {
		t.Fatalf("post-reset violations: %v", more)
	}
	if _, fired := c.Finalize(); fired {
		t.Fatal("clean finalize reported a violation")
	}
	if c.Events() != 5 || c.Violations() != 1 {
		t.Fatalf("counters: events=%d violations=%d", c.Events(), c.Violations())
	}
}

func TestCheckerIncompleteAtFinalize(t *testing.T) {
	c := New(protocolFA(t).Sim(), Config{})
	if vs := feedAll(t, c, "X = open()", "use(X)"); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
	v, fired := c.Finalize()
	if !fired {
		t.Fatal("incomplete stream finalized cleanly")
	}
	if !v.Incomplete() || v.At != 2 || v.Offset != 2 {
		t.Fatalf("violation shape: %+v", v)
	}
	if !strings.Contains(v.String(), "incomplete at end") {
		t.Fatalf("String() = %q", v.String())
	}
	if _, _, err := c.Feed(event.MustParse("use(X)")); err == nil {
		t.Fatal("Feed after Finalize succeeded")
	}
}

func TestCheckerEmptyStreamFinalizesClean(t *testing.T) {
	// A stream that was opened and closed without traffic is not a
	// protocol instance at all — no violation, even though the start
	// frontier is not accepting.
	c := New(protocolFA(t).Sim(), Config{})
	if v, fired := c.Finalize(); fired {
		t.Fatalf("empty stream violated: %+v", v)
	}
}

func TestCheckerWindowTruncation(t *testing.T) {
	c := New(protocolFA(t).Sim(), Config{Window: 4})
	evs := []string{"X = open()"}
	for i := 0; i < 10; i++ {
		evs = append(evs, "use(X)")
	}
	evs = append(evs, "fclose(X)")
	vs := feedAll(t, c, evs...)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	v := vs[0]
	if !v.Truncated {
		t.Fatal("overflowed window not flagged truncated")
	}
	if len(v.Trace.Events) != 4 || v.At != 3 || v.Offset != 11 {
		t.Fatalf("violation shape: %+v", v)
	}
	if got := v.Trace.Key(); got != "use(X); use(X); use(X); fclose(X)" {
		t.Fatalf("window trace = %q", got)
	}
	if !strings.Contains(v.String(), "window truncated") {
		t.Fatalf("String() = %q", v.String())
	}
	if c.Truncations() != 8 {
		t.Fatalf("Truncations() = %d, want 8", c.Truncations())
	}
	// The reset cleared the truncation flag for the next window.
	feedAll(t, c, "X = open()")
	if v, fired := c.Finalize(); !fired || v.Truncated {
		t.Fatalf("post-reset finalize: fired=%v violation=%+v", fired, v)
	}
}

func TestCheckerMultipleViolations(t *testing.T) {
	c := New(protocolFA(t).Sim(), Config{})
	vs := feedAll(t, c,
		"fclose(X)",                         // violation 1: dies immediately
		"X = open()", "use(X)", "fclose(X)", // violation 2
		"X = open()", "close(X)", // clean instance
	)
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2", len(vs))
	}
	if vs[0].At != 0 || vs[0].Offset != 0 {
		t.Fatalf("first violation shape: %+v", vs[0])
	}
	// The second window must not leak events from before the first reset.
	if got := vs[1].Trace.Key(); got != "X = open(); use(X); fclose(X)" {
		t.Fatalf("second window trace = %q", got)
	}
	if vs[1].At != 2 || vs[1].Offset != 3 {
		t.Fatalf("second violation shape: %+v", vs[1])
	}
	if _, fired := c.Finalize(); fired {
		t.Fatal("clean tail still violated at finalize")
	}
	if c.Violations() != 2 {
		t.Fatalf("Violations() = %d", c.Violations())
	}
}

func TestStateRestoreRoundTrip(t *testing.T) {
	sim := protocolFA(t).Sim()
	orig := New(sim, Config{Window: 8})
	feedAll(t, orig, "fclose(X)", "X = open()", "use(X)")
	st := orig.State()
	if st.Events != 3 || st.SinceReset != 2 || st.Violations != 1 || len(st.Ring) != 2 {
		t.Fatalf("state shape: %+v", st)
	}

	restored, err := Restore(sim, st)
	if err != nil {
		t.Fatal(err)
	}
	// Both checkers must agree on everything that follows.
	for _, c := range []*Checker{orig, restored} {
		if vs := feedAll(t, c, "close(X)"); len(vs) != 0 {
			t.Fatalf("close after restore violated: %v", vs)
		}
		if _, fired := c.Finalize(); fired {
			t.Fatal("accepting stream violated at finalize")
		}
		if c.Events() != 4 || c.Violations() != 1 {
			t.Fatalf("counters after restore: events=%d violations=%d", c.Events(), c.Violations())
		}
	}

	bad := st
	bad.Frontier = []int{99}
	if _, err := Restore(sim, bad); err == nil {
		t.Fatal("out-of-range frontier restored")
	}
	bad = st
	bad.Window = 1 // smaller than the ring contents
	if _, err := Restore(sim, bad); err == nil {
		t.Fatal("ring larger than window restored")
	}
}

func TestIngestPartialProgress(t *testing.T) {
	c := New(protocolFA(t).Sim(), Config{})
	src := strings.Join([]string{
		`{"event": "X = open()"}`,
		``,
		`not json`,
		`{"event": "use(X)"}`,
		`{"unknown": "field"}`,
		`{"event": "fclose(X)"}`,
		`{"event": "X = open()"}`,
		`{"event": "close(X)"}`,
	}, "\n")
	var fired []Violation
	accepted, issues, err := Ingest(c, strings.NewReader(src), func(v Violation) { fired = append(fired, v) })
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 5 {
		t.Fatalf("accepted = %d, want 5", accepted)
	}
	if len(issues) != 2 || issues[0].Line != 3 || issues[1].Line != 5 {
		t.Fatalf("issues = %+v", issues)
	}
	var se *scanio.Error
	if !errors.As(issues[0].Err, &se) || se.Line != 3 || se.Subsystem != "stream" {
		t.Fatalf("issue error not a located scanio.Error: %v", issues[0].Err)
	}
	if len(fired) != 1 || fired[0].Trace.Key() != "X = open(); use(X); fclose(X)" {
		t.Fatalf("violations = %+v", fired)
	}
	if _, fired := c.Finalize(); fired {
		t.Fatal("clean tail violated at finalize")
	}
}

func TestIngestFatalAfterFinalize(t *testing.T) {
	c := New(protocolFA(t).Sim(), Config{})
	c.Finalize()
	accepted, _, err := Ingest(c, strings.NewReader(`{"event": "use(X)"}`), nil)
	if err == nil || accepted != 0 {
		t.Fatalf("ingest into finalized checker: accepted=%d err=%v", accepted, err)
	}
}

// A read that fails in the middle of a line ends the batch at that line:
// the lines before it stay fed, and the fragment is neither fed nor
// reported as malformed.
func TestIngestReadFailureMidLine(t *testing.T) {
	c := New(protocolFA(t).Sim(), Config{})
	boom := errors.New("boom")
	src := io.MultiReader(strings.NewReader("{\"event\": \"X = open()\"}\n{\"event\": \"use"), iotest.ErrReader(boom))
	accepted, issues, err := Ingest(c, src, nil)
	var se *scanio.Error
	if accepted != 1 || len(issues) != 0 || !errors.As(err, &se) || se.Line != 2 || !errors.Is(err, boom) {
		t.Fatalf("accepted=%d issues=%+v err=%v; want 1 fed, no issues, boom at line 2", accepted, issues, err)
	}
}

func TestDecodeLineRejects(t *testing.T) {
	for _, bad := range []string{
		`not json`,
		`{"event": 42}`,
		`{"other": "use(X)"}`,
		`{"event": ""}`,
		`{"event": "use(X)"} trailing`,
		`{"event": "((("}`,
	} {
		if _, err := DecodeLine([]byte(bad)); err == nil {
			t.Errorf("DecodeLine(%q) accepted", bad)
		}
	}
	ev, err := DecodeLine([]byte(` {"event": "Y = open()"} `))
	if err != nil {
		t.Fatal(err)
	}
	if ev.String() != "Y = open()" {
		t.Fatalf("decoded %q", ev.String())
	}
}

func TestFeedZeroAllocSteadyState(t *testing.T) {
	c := New(protocolFA(t).Sim(), Config{Window: 4})
	open := event.MustParse("X = open()")
	use := event.MustParse("use(X)")
	if _, _, err := c.Feed(open); err != nil {
		t.Fatal(err)
	}
	// Steady state includes ring eviction (the window stays full).
	allocs := testing.AllocsPerRun(500, func() {
		if _, fired, err := c.Feed(use); fired || err != nil {
			t.Fatal("steady-state feed fired or failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Feed allocates %v per call, want 0", allocs)
	}
}
