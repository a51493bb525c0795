// Package scanio centralizes the line-scanning policy shared by every
// text reader in the repo (trace, fa, concept, cable labels, workspace).
//
// Before this package existed each reader sized its own bufio.Scanner
// buffer — some at 1 MiB, some at 4 MiB — and surfaced oversized-line
// failures as a bare "bufio.Scanner: token too long" with no file or
// line context. scanio fixes both: one limit, and one error-wrapping
// helper that always names the line.
package scanio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// MaxLineBytes is the single line-length cap for every line-oriented
// reader in the repo. Event lines in traces are the longest inputs we
// see in practice; 4 MiB leaves ample headroom while still bounding
// memory for adversarial inputs.
const MaxLineBytes = 4 << 20

// NewScanner returns a line scanner over r configured with the shared
// buffer policy: the buffer starts at bufio's 4 KiB and doubles on demand
// up to MaxLineBytes, so short inputs never pay for the cap. Callers
// should report scanner failures via LineError so oversized lines are
// diagnosed consistently.
func NewScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxLineBytes)
	return sc
}

// Error is a read failure located at a specific line. LineError returns
// this type, so callers that need the structure — e.g. a service mapping
// parse failures into a machine-readable error envelope with a line
// field — can recover it with errors.As; everything else keeps seeing
// the same rendered message LineError has always produced.
type Error struct {
	// Subsystem names the reader, e.g. "trace" or "fa".
	Subsystem string
	// Line is the 1-based line number where the failure occurred.
	Line int
	// Err is the underlying error.
	Err error
}

// Error renders the located failure; bufio.ErrTooLong is translated into
// a message that spells out the shared limit instead of the opaque
// "token too long".
func (e *Error) Error() string {
	if errors.Is(e.Err, bufio.ErrTooLong) {
		return fmt.Sprintf("%s: line %d: line exceeds %d-byte limit: %v",
			e.Subsystem, e.Line, MaxLineBytes, e.Err)
	}
	return fmt.Sprintf("%s: line %d: %v", e.Subsystem, e.Line, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As chains.
func (e *Error) Unwrap() error { return e.Err }

// LineError wraps a scanner (or other read) error with the 1-based line
// number where it occurred, prefixed by the subsystem name (e.g.
// "trace", "fa"). A nil err returns nil, so callers can wrap sc.Err()
// unconditionally. The returned error is a *Error.
func LineError(subsystem string, line int, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Subsystem: subsystem, Line: line, Err: err}
}
