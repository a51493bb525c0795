package concept

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/scanio"
)

// This file implements the Burmeister .cxt format, the lingua franca of
// formal-concept-analysis tools, so contexts can be exchanged with other
// FCA software:
//
//	B
//	<optional name line>
//	<number of objects>
//	<number of attributes>
//	<blank line>            (accepted but not required)
//	object names, one per line
//	attribute names, one per line
//	one row per object: 'X' = related, '.' = not related
//
// WriteContext always emits the name line; ReadContext accepts files with
// or without it (disambiguating by whether the line parses as a count).

// WriteContext serializes the context in Burmeister format.
func WriteContext(w io.Writer, c *Context, name string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "B")
	fmt.Fprintln(bw, name)
	fmt.Fprintln(bw, c.NumObjects())
	fmt.Fprintln(bw, c.NumAttributes())
	fmt.Fprintln(bw)
	for _, n := range c.objNames {
		if strings.ContainsAny(n, "\n") {
			return fmt.Errorf("concept: object name %q contains newline", n)
		}
		fmt.Fprintln(bw, n)
	}
	for _, n := range c.attrNames {
		if strings.ContainsAny(n, "\n") {
			return fmt.Errorf("concept: attribute name %q contains newline", n)
		}
		fmt.Fprintln(bw, n)
	}
	for o := 0; o < c.NumObjects(); o++ {
		var row strings.Builder
		for a := 0; a < c.NumAttributes(); a++ {
			if c.Has(o, a) {
				row.WriteByte('X')
			} else {
				row.WriteByte('.')
			}
		}
		fmt.Fprintln(bw, row.String())
	}
	return bw.Flush()
}

// ReadContext parses a Burmeister-format context, returning the context
// and its name line (empty when absent). Every trailing carriage return
// is trimmed from each line, so CRLF files read as LF files do and no
// name ends in '\r': WriteContext then gives back what ReadContext read.
func ReadContext(r io.Reader) (*Context, string, error) {
	sc := scanio.NewScanner(r)
	// Collect lines, skipping blank lines only where the format allows.
	var lines []string
	for sc.Scan() {
		lines = append(lines, strings.TrimRight(sc.Text(), "\r"))
	}
	if err := sc.Err(); err != nil {
		return nil, "", scanio.LineError("concept", len(lines)+1, err)
	}
	pos := 0
	next := func() (string, bool) {
		if pos >= len(lines) {
			return "", false
		}
		l := lines[pos]
		pos++
		return l, true
	}
	header, ok := next()
	if !ok || strings.TrimSpace(header) != "B" {
		return nil, "", scanio.LineError("concept", 1, fmt.Errorf("not a Burmeister context (missing B header)"))
	}
	// The next line is either the name or the object count.
	line, ok := next()
	if !ok {
		return nil, "", scanio.LineError("concept", pos+1, fmt.Errorf("truncated context"))
	}
	name := ""
	nObj, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil {
		name = line
		line, ok = next()
		if !ok {
			return nil, "", scanio.LineError("concept", pos+1, fmt.Errorf("truncated context"))
		}
		nObj, err = strconv.Atoi(strings.TrimSpace(line))
		if err != nil {
			return nil, "", scanio.LineError("concept", pos, fmt.Errorf("bad object count %q", line))
		}
	}
	line, ok = next()
	if !ok {
		return nil, "", scanio.LineError("concept", pos+1, fmt.Errorf("truncated context"))
	}
	nAttr, err := strconv.Atoi(strings.TrimSpace(line))
	if err != nil {
		return nil, "", scanio.LineError("concept", pos, fmt.Errorf("bad attribute count %q", line))
	}
	if nObj < 0 || nAttr < 0 {
		return nil, "", scanio.LineError("concept", pos, fmt.Errorf("negative dimensions %d x %d", nObj, nAttr))
	}
	// Optional blank separator.
	if pos < len(lines) && strings.TrimSpace(lines[pos]) == "" {
		pos++
	}
	// Bound each declared count by the lines actually present before
	// computing `needed` or allocating: a huge count would overflow the
	// sum (sliding past the check below) and then panic in make.
	remaining := len(lines) - pos
	if nObj > remaining || nAttr > remaining {
		return nil, "", scanio.LineError("concept", len(lines)+1, fmt.Errorf("context declares %d x %d but only %d lines remain", nObj, nAttr, remaining))
	}
	needed := nObj + nAttr + nObj
	if remaining < needed {
		return nil, "", scanio.LineError("concept", len(lines)+1, fmt.Errorf("context needs %d more lines, have %d", needed, remaining))
	}
	objNames := make([]string, nObj)
	for i := range objNames {
		objNames[i], _ = next()
	}
	attrNames := make([]string, nAttr)
	for i := range attrNames {
		attrNames[i], _ = next()
	}
	c := NewContext(objNames, attrNames)
	for o := 0; o < nObj; o++ {
		row, _ := next()
		row = strings.TrimRight(row, " \t\r")
		if len(row) != nAttr {
			return nil, "", scanio.LineError("concept", pos, fmt.Errorf("row %d has %d cells, want %d", o, len(row), nAttr))
		}
		for a := 0; a < nAttr; a++ {
			switch row[a] {
			case 'X', 'x':
				c.Relate(o, a)
			case '.':
			default:
				return nil, "", scanio.LineError("concept", pos, fmt.Errorf("row %d: bad cell %q", o, row[a]))
			}
		}
	}
	return c, name, nil
}
