package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/scanio"
)

// Line is the NDJSON wire shape for one stream event, shared by cabled's
// /v1/streams/{id}/events ingest and the cable CLI's offline mode:
//
//	{"event": "fclose(X)"}
//
// One JSON object per line; blank lines are skipped.
type Line struct {
	Event string `json:"event"`
}

// DecodeLine parses one NDJSON line into an event. It rejects JSON that
// isn't a single {"event": ...} object and event text the trace grammar
// refuses.
func DecodeLine(data []byte) (event.Event, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var ln Line
	if err := dec.Decode(&ln); err != nil {
		return event.Event{}, fmt.Errorf("decoding event line: %w", err)
	}
	if dec.More() {
		return event.Event{}, fmt.Errorf("decoding event line: trailing data after object")
	}
	if ln.Event == "" {
		return event.Event{}, fmt.Errorf("decoding event line: missing %q field", "event")
	}
	ev, err := event.Parse(ln.Event)
	if err != nil {
		return event.Event{}, err
	}
	return ev, nil
}

// decodeLineFast is the allocation-free decode path for the overwhelmingly
// common wire shape: a single-field {"event":"..."} object whose string has
// no escapes and whose text is the canonical rendering of an event the
// checker's plan already interned. On a hit it returns the interned Event
// (shared strings, zero allocations); any deviation — extra fields, escape
// sequences, malformed JSON, an event outside the plan's alphabet or in a
// non-canonical spelling — reports ok=false and the caller falls back to
// DecodeLine, whose json.Decoder + event.Parse semantics (and exact errors)
// remain authoritative.
func decodeLineFast(sim *fa.Sim, raw []byte) (ev event.Event, ok bool) {
	i, n := 0, len(raw)
	skip := func() {
		for i < n && (raw[i] == ' ' || raw[i] == '\t' || raw[i] == '\r' || raw[i] == '\n') {
			i++
		}
	}
	skip()
	if i >= n || raw[i] != '{' {
		return event.Event{}, false
	}
	i++
	skip()
	const field = `"event"`
	if n-i < len(field) || string(raw[i:i+len(field)]) != field {
		return event.Event{}, false
	}
	i += len(field)
	skip()
	if i >= n || raw[i] != ':' {
		return event.Event{}, false
	}
	i++
	skip()
	if i >= n || raw[i] != '"' {
		return event.Event{}, false
	}
	i++
	start := i
	for i < n && raw[i] != '"' {
		if c := raw[i]; c == '\\' || c < 0x20 {
			return event.Event{}, false
		}
		i++
	}
	if i >= n || i == start {
		return event.Event{}, false // unterminated, or empty (slow path owns that error)
	}
	text := raw[start:i]
	i++
	skip()
	if i >= n || raw[i] != '}' {
		return event.Event{}, false
	}
	i++
	skip()
	if i != n {
		return event.Event{}, false
	}
	return sim.CanonicalEvent(text)
}

// LineIssue is one rejected NDJSON line. Err is wrapped with
// scanio.LineError, so errors.As recovers the *scanio.Error and its line
// number for machine-readable envelopes.
type LineIssue struct {
	Line int
	Err  error
}

// lineBufBytes sizes the line buffer a checker keeps for Ingest: room
// for a batch's event lines, which run to tens of bytes, not for a file.
// A longer line still reads: the scanner grows a larger buffer for that
// call, up to scanio.MaxLineBytes.
const lineBufBytes = 512

// Ingest pumps NDJSON lines from r into the checker with
// partial-progress semantics: malformed lines are reported as issues and
// skipped, well-formed lines are fed, and violations are delivered to
// onViolation (which may be nil) in stream order as they fire. It
// returns the number of events accepted. The error return is fatal-only
// — an unreadable source (oversized line, transport failure, a body over
// its size limit) or a feed into a finalized checker; in both cases the
// counts and issues up to that point are still meaningful. A line the
// source failed in the middle of is not fed: the error is reported at
// that line instead.
//
// Lines are scanned through a buffer the checker keeps, so a batch of
// canonical lines allocates nothing once the checker is warm; no event,
// issue or error refers into that buffer. Each read from r asks for at
// most the buffer's free space (512 bytes), so a caller reading a file
// wraps it in a bufio.Reader.
func Ingest(c *Checker, r io.Reader, onViolation func(Violation)) (accepted int, issues []LineIssue, err error) {
	const subsystem = "stream"
	sim := c.cur.Sim()
	if c.line == nil {
		c.line = make([]byte, lineBufBytes)
	}
	sc := scanio.NewScanner(r)
	sc.Buffer(c.line, scanio.MaxLineBytes)
	sc.Split(scanTerminatedLines)
	line := 0
	for sc.Scan() {
		tok := sc.Bytes()
		if tok[len(tok)-1] != '\n' && sc.Err() != nil {
			break // the read failed in the middle of this line
		}
		line++
		raw := bytes.TrimSpace(tok)
		if len(raw) == 0 {
			continue
		}
		ev, ok := decodeLineFast(sim, raw)
		if !ok {
			var derr error
			ev, derr = DecodeLine(raw)
			if derr != nil {
				issues = append(issues, LineIssue{Line: line, Err: scanio.LineError(subsystem, line, derr)})
				continue
			}
		}
		v, fired, ferr := c.Feed(ev)
		if ferr != nil {
			return accepted, issues, scanio.LineError(subsystem, line, ferr)
		}
		accepted++
		if fired && onViolation != nil {
			onViolation(v)
		}
	}
	if serr := sc.Err(); serr != nil {
		return accepted, issues, scanio.LineError(subsystem, line+1, serr)
	}
	return accepted, issues, nil
}

// scanTerminatedLines is bufio.ScanLines keeping each line's newline, so
// Ingest can tell an unterminated last line: the scanner has already
// recorded the read error, if any, that ended it.
func scanTerminatedLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}
