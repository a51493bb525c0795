package stream

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestDecodeLineFastMatchesSlow pins the fast NDJSON path differentially
// against DecodeLine: on every probe the fast path either declines (ok
// false — the slow path then owns both the result and the error) or
// returns exactly the event DecodeLine parses. It must never accept a line
// the slow path rejects.
func TestDecodeLineFastMatchesSlow(t *testing.T) {
	sim := protocolFA(t).Sim()
	for _, line := range []string{
		// Canonical interned events, with and without JSON whitespace.
		`{"event":"X = open()"}`,
		`{"event": "use(X)"}`,
		` { "event" : "close(X)" } `,
		"\t{\"event\":\"use(X)\"}\r",
		// Valid JSON the fast path declines: non-canonical spellings,
		// events outside the plan's alphabet, escapes.
		`{"event": "use( X )"}`,
		`{"event": "fclose(X)"}`,
		`{"event": "use(X)"}`,
		`{"event": "a\\b()"}`,
		// Malformed shapes the slow path must reject.
		`not json`,
		`{"event": 42}`,
		`{"other": "use(X)"}`,
		`{"event": ""}`,
		`{"event": "use(X)"} trailing`,
		`{"event": "((("}`,
		`{"event": "use(X)", "extra": 1}`,
		`{"event": "use(X)"`,
		`{"event": "use(X)}`,
		``,
	} {
		fast, ok := decodeLineFast(sim, []byte(line))
		slow, err := DecodeLine([]byte(line))
		if !ok {
			continue // slow path owns the outcome, whatever it is
		}
		if err != nil {
			t.Errorf("fast path accepted %q, DecodeLine rejects it: %v", line, err)
			continue
		}
		if fast.String() != slow.String() {
			t.Errorf("decode %q: fast %q, slow %q", line, fast, slow)
		}
	}
}

// TestIngestAllocSteadyState is the Ingest analogue of
// TestFeedZeroAllocSteadyState: pumping canonical NDJSON lines through a
// live checker must cost O(1) allocations per Ingest call (scanner state),
// not O(lines) — the regression pin for the fast decode path. The
// pre-fast-path decoder cost ~11 allocations per line.
func TestIngestAllocSteadyState(t *testing.T) {
	const lines = 200
	var sb strings.Builder
	sb.WriteString(`{"event": "X = open()"}` + "\n")
	for i := 0; i < lines-1; i++ {
		sb.WriteString(`{"event": "use(X)"}` + "\n")
	}
	src := []byte(sb.String())
	sim := protocolFA(t).Sim()
	r := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(20, func() {
		c := New(sim, Config{Window: 4})
		r.Reset(src)
		n, issues, err := Ingest(c, r, nil)
		if n != lines || len(issues) != 0 || err != nil {
			t.Fatalf("ingest: n=%d issues=%v err=%v", n, issues, err)
		}
	})
	if perLine := allocs / lines; perLine > 0.1 {
		t.Fatalf("Ingest allocates %v per %d-line call (%.2f/line), want O(1) per call", allocs, lines, perLine)
	}
}

// TestIngestFastSlowAgree feeds the same mixed stream (canonical lines,
// non-canonical spellings, junk) through Ingest and through a hand loop
// using only DecodeLine, and requires identical accept counts, issue
// lines, and violations.
func TestIngestFastSlowAgree(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"event": "X = open()"}` + "\n")
	sb.WriteString(`{"event": "use(X)"}` + "\n")
	sb.WriteString(`{"event": "use( X )"}` + "\n") // non-canonical: slow path parses it
	sb.WriteString(`junk` + "\n")
	sb.WriteString(`{"event": "fclose(X)"}` + "\n") // violation: outside the protocol
	sb.WriteString(`{"event": "close(X)"}` + "\n")
	src := sb.String()

	var fastViol []int
	c := New(protocolFA(t).Sim(), Config{})
	n, issues, err := Ingest(c, strings.NewReader(src), func(v Violation) { fastViol = append(fastViol, int(v.Offset)) })
	if err != nil {
		t.Fatal(err)
	}

	c2 := New(protocolFA(t).Sim(), Config{})
	var slowN int
	var slowIssues []int
	var slowViol []int
	for i, line := range strings.Split(strings.TrimSuffix(src, "\n"), "\n") {
		ev, derr := DecodeLine([]byte(line))
		if derr != nil {
			slowIssues = append(slowIssues, i+1)
			continue
		}
		v, fired, ferr := c2.Feed(ev)
		if ferr != nil {
			t.Fatal(ferr)
		}
		slowN++
		if fired {
			slowViol = append(slowViol, int(v.Offset))
		}
	}
	if n != slowN {
		t.Fatalf("accepted %d, slow loop %d", n, slowN)
	}
	gotIssues := make([]int, len(issues))
	for i, is := range issues {
		gotIssues[i] = is.Line
	}
	if fmt.Sprint(gotIssues) != fmt.Sprint(slowIssues) {
		t.Fatalf("issue lines %v, slow loop %v", gotIssues, slowIssues)
	}
	if fmt.Sprint(fastViol) != fmt.Sprint(slowViol) {
		t.Fatalf("violations %v, slow loop %v", fastViol, slowViol)
	}
}
