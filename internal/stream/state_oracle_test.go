package stream

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/event"
)

// copyingState is State as it was before State aliased the checker: the
// frontier and the ring copied out in stream order, the ring left where it
// lies. It reads the checker without changing it.
func copyingState(c *Checker) State {
	return State{
		Window:      c.window,
		Events:      c.events,
		SinceReset:  c.sinceReset,
		Truncations: c.truncations,
		Violations:  c.violations,
		Truncated:   c.truncated,
		Frontier:    c.cur.States(nil),
		Ring:        c.snapshotWindow(),
	}
}

// TestStateMatchesCopyingOracle feeds random events through checkers with
// small windows, so rings wrap, frontiers die and checkers reset, and at
// random points requires State to equal the copying oracle field for
// field (cabled's WAL stream record reads nothing else, so the records
// match byte for byte), Restore to rebuild that state, and State's
// in-place rotation to change nothing a twin checker that is never asked
// for its state would report.
func TestStateMatchesCopyingOracle(t *testing.T) {
	sim := protocolFA(t).Sim()
	open, use := event.MustParse("X = open()"), event.MustParse("use(X)")
	alphabet := []event.Event{
		open, open, use, use, use, use, use, use,
		event.MustParse("close(X)"),
		event.MustParse("fclose(X)"), // outside the protocol: kills the frontier
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		window := 1 + rng.Intn(6)
		c, twin := New(sim, Config{Window: window}), New(sim, Config{Window: window})
		for step := 0; step < 60; step++ {
			e := alphabet[rng.Intn(len(alphabet))]
			v, fired, err := c.Feed(e)
			tv, tfired, terr := twin.Feed(e)
			if err != nil || terr != nil {
				t.Fatal(err, terr)
			}
			if fired != tfired || !reflect.DeepEqual(v, tv) {
				t.Fatalf("round %d step %d: violation %+v (%v), twin %+v (%v)", round, step, v, fired, tv, tfired)
			}
			if rng.Intn(3) > 0 {
				continue
			}
			want := copyingState(c)
			got := c.State()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d step %d: State %+v, copying oracle %+v", round, step, got, want)
			}
			if again := copyingState(c); !reflect.DeepEqual(again, want) {
				t.Fatalf("round %d step %d: State moved the checker to %+v from %+v", round, step, again, want)
			}
			r, err := Restore(sim, got)
			if err != nil {
				t.Fatalf("round %d step %d: %v", round, step, err)
			}
			if rs := copyingState(r); !reflect.DeepEqual(rs, want) {
				t.Fatalf("round %d step %d: restored %+v, want %+v", round, step, rs, want)
			}
		}
		if !reflect.DeepEqual(copyingState(c), copyingState(twin)) {
			t.Fatalf("round %d: checker %+v, twin %+v", round, copyingState(c), copyingState(twin))
		}
	}
}

// TestIngestWarmZeroAlloc pins the line buffer a checker keeps: once a
// checker has ingested a batch, a batch of canonical lines allocates
// nothing.
func TestIngestWarmZeroAlloc(t *testing.T) {
	c := New(protocolFA(t).Sim(), Config{})
	if _, _, err := c.Feed(event.MustParse("X = open()")); err != nil {
		t.Fatal(err)
	}
	src := []byte(strings.Repeat(`{"event": "use(X)"}`+"\n", 32))
	r := bytes.NewReader(nil)
	ingest := func() {
		r.Reset(src)
		if n, issues, err := Ingest(c, r, nil); n != 32 || len(issues) != 0 || err != nil {
			t.Fatalf("ingest: n=%d issues=%v err=%v", n, issues, err)
		}
	}
	ingest()
	if allocs := testing.AllocsPerRun(20, ingest); allocs != 0 {
		t.Fatalf("a warm Ingest of 32 canonical lines allocates %v objects, want 0", allocs)
	}
}

// TestIngestKeepsNoBufferReference checks that nothing Ingest returns
// refers into the line buffer the checker reuses: a later batch that
// overwrites the buffer, with a line longer than the buffer among its
// lines, leaves an earlier batch's violations and issues as they were.
func TestIngestKeepsNoBufferReference(t *testing.T) {
	c := New(protocolFA(t).Sim(), Config{})
	first := strings.Join([]string{
		`{"event": "X = open()"}`,
		`{"event": "use( X )"}`,  // non-canonical: decoded by DecodeLine
		`{"event": "fclose(X)"}`, // outside the alphabet: a violation
		`{"event": "bogus"}`,     // an issue
		`{"event": "X = open()"}`,
	}, "\n")
	var vs []Violation
	_, issues, err := Ingest(c, strings.NewReader(first), func(v Violation) { vs = append(vs, v) })
	if err != nil || len(vs) != 1 || len(issues) != 1 {
		t.Fatalf("violations %v, issues %v, err %v", vs, issues, err)
	}
	key, msg := vs[0].Trace.Key(), issues[0].Err.Error()

	long := `{"event": "use(X)"` + strings.Repeat(" ", 3*lineBufBytes) + "}"
	second := strings.Repeat(`{"event": "use(X)"}`+"\n", 40) + long + "\n" + `{"event": "close(X)"}` + "\n"
	if n, issues, err := Ingest(c, strings.NewReader(second), nil); n != 42 || len(issues) != 0 || err != nil {
		t.Fatalf("second batch: n=%d issues=%v err=%v", n, issues, err)
	}
	if len(c.line) != lineBufBytes {
		t.Fatalf("kept line buffer has %d bytes after a long line, want %d", len(c.line), lineBufBytes)
	}
	if got := vs[0].Trace.Key(); got != key {
		t.Fatalf("violation trace changed to %q from %q", got, key)
	}
	if got := issues[0].Err.Error(); got != msg {
		t.Fatalf("issue changed to %q from %q", got, msg)
	}
	if _, fired := c.Finalize(); fired {
		t.Fatal("stream ending after close violated at finalize")
	}
}
