package fa

import (
	"bufio"
	"errors"
	"strings"
	"testing"

	"repro/internal/scanio"
)

// TestReadErrorsCarryLineNumbers pins the errwrapline dogfood fix: parse
// failures name the offending 1-based line via scanio.LineError and wrap
// the underlying cause so errors.Unwrap reaches it.
func TestReadErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string // substring of the error, including "line N"
	}{
		{"bad edge", "fa x\nstates 2\nstart 0\naccept 1\nedge nope\nend\n", "fa: line 5: bad edge line"},
		{"bad state count", "fa x\nstates many\nend\n", "fa: line 2: bad state count"},
		// An absurd declared count must be a parse error, not a panic in
		// the builder's state allocation.
		{"huge state count", "fa x\nstates 7000000000000000000\nend\n", "fa: line 2: bad state count"},
		// A 40-byte file must not make the reader allocate millions of
		// states, and a second states line must not add to the first.
		{"state count over bound", "fa x\nstates 16777216\nstart 0\naccept\nend\n", "fa: line 2: bad state count"},
		{"second states line", "fa x\nstates 2\nstates 3\nstart 0\naccept\nend\n", "fa: line 3: duplicate states line"},
		{"start outside record", "start 0\n", "fa: line 1: start outside record"},
		{"unknown directive", "fa x\nstates 1\nwobble\nend\n", "fa: line 3: unknown directive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("Read accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if errors.Unwrap(err) == nil {
				t.Fatalf("error %q is not wrapped (errors.Unwrap == nil)", err)
			}
		})
	}
}

// TestReadOversizedLine pins the shared scanner policy: a line over
// scanio.MaxLineBytes fails with bufio.ErrTooLong in the chain and a
// message that spells out the limit instead of "token too long".
func TestReadOversizedLine(t *testing.T) {
	long := "fa " + strings.Repeat("x", scanio.MaxLineBytes+1) + "\n"
	_, err := Read(strings.NewReader(long))
	if err == nil {
		t.Fatal("Read accepted an oversized line")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("error %q does not wrap bufio.ErrTooLong", err)
	}
	if !strings.Contains(err.Error(), "byte limit") {
		t.Fatalf("error %q does not spell out the line limit", err)
	}
}
