// Package workspace persists entire Cable debugging sessions — the trace
// multiset, the reference FA, and the labels assigned so far — in a single
// file, so a long labeling effort (the paper's larger specifications need
// hundreds of decisions without Cable and dozens with it) can be saved and
// resumed across tool invocations.
//
// The format is line-oriented and composes the existing trace, FA, and
// label serializations under section headers:
//
//	cable-workspace v1
//	=== fa ===
//	<internal/fa text format>
//	=== traces ===
//	<internal/trace text format>
//	=== labels ===
//	<label>\t<trace key> lines
//	=== end ===
//
// Neither the FA nor the trace format produces lines beginning with "===",
// so the section markers cannot collide with content.
package workspace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/cable"
	"repro/internal/fa"
	"repro/internal/scanio"
	"repro/internal/trace"
)

const (
	header        = "cable-workspace v1"
	sectionFA     = "=== fa ==="
	sectionTraces = "=== traces ==="
	sectionLabels = "=== labels ==="
	sectionEnd    = "=== end ==="
)

// Save writes the session to w.
func Save(w io.Writer, s *cable.Session) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, header)
	fmt.Fprintln(bw, sectionFA)
	if err := fa.Write(bw, s.Ref()); err != nil {
		return err
	}
	fmt.Fprintln(bw, sectionTraces)
	if err := trace.Write(bw, s.Set()); err != nil {
		return err
	}
	fmt.Fprintln(bw, sectionLabels)
	if _, err := cable.WriteLabels(bw, s); err != nil {
		return err
	}
	fmt.Fprintln(bw, sectionEnd)
	return bw.Flush()
}

// Load reads a workspace and reconstructs the session, lattice included.
func Load(r io.Reader) (*cable.Session, error) {
	sc := scanio.NewScanner(r)
	lineno := 0
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != header {
		if err := sc.Err(); err != nil {
			return nil, scanio.LineError("workspace", 1, err)
		}
		return nil, scanio.LineError("workspace", 1, fmt.Errorf("missing %q header", header))
	}
	lineno++
	sections := map[string]*strings.Builder{}
	var cur *strings.Builder
	for sc.Scan() {
		lineno++
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case sectionFA, sectionTraces, sectionLabels:
			cur = &strings.Builder{}
			sections[strings.TrimSpace(line)] = cur
		case sectionEnd:
			cur = nil
		default:
			if cur == nil {
				if strings.TrimSpace(line) == "" {
					continue
				}
				return nil, scanio.LineError("workspace", lineno, fmt.Errorf("content outside any section: %q", line))
			}
			cur.WriteString(line)
			cur.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil {
		return nil, scanio.LineError("workspace", lineno+1, err)
	}
	for _, name := range []string{sectionFA, sectionTraces, sectionLabels} {
		if sections[name] == nil {
			return nil, fmt.Errorf("workspace: missing section %q", name) //cablevet:ignore errwrapline whole-input error, no line to blame
		}
	}
	ref, err := fa.Read(strings.NewReader(sections[sectionFA].String()))
	if err != nil {
		return nil, fmt.Errorf("workspace: fa section: %w", err) //cablevet:ignore errwrapline wraps the sub-reader LineError
	}
	set, err := trace.Read(strings.NewReader(sections[sectionTraces].String()))
	if err != nil {
		return nil, fmt.Errorf("workspace: traces section: %w", err) //cablevet:ignore errwrapline wraps the sub-reader LineError
	}
	session, err := cable.NewSession(set, ref)
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err) //cablevet:ignore errwrapline not a parse error
	}
	if _, err := cable.ApplyLabels(session, strings.NewReader(sections[sectionLabels].String())); err != nil {
		return nil, fmt.Errorf("workspace: labels section: %w", err) //cablevet:ignore errwrapline wraps the sub-reader LineError
	}
	return session, nil
}
