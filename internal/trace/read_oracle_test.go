package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/event"
	"repro/internal/scanio"
)

// oracleRead is the straightforward line reader that Read replaced: it
// parses every event line afresh, copies each line into a string, and
// builds every trace's events and key from scratch. It stays as the
// differential oracle for Read's interning, keying and slab cutting.
func oracleRead(r io.Reader) (*Set, error) {
	s := &Set{}
	sc := scanio.NewScanner(r)
	var (
		cur    *Trace
		lineno int
	)
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		fields := strings.Fields(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case (line == "trace" || strings.HasPrefix(line, "trace ")) &&
			!(len(fields) > 2 && fields[1] == "="):
			if cur != nil {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("nested trace record"))
			}
			if len(fields) > 2 {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("trace ID must be a single word"))
			}
			id := ""
			if len(fields) == 2 {
				id = fields[1]
			}
			cur = &Trace{ID: id}
		case line == "end":
			if cur == nil {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("end outside trace record"))
			}
			s.Add(*cur)
			cur = nil
		default:
			if cur == nil {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("event outside trace record"))
			}
			e, err := event.Parse(line)
			if err != nil {
				return nil, scanio.LineError("trace", lineno, err)
			}
			cur.Events = append(cur.Events, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, scanio.LineError("trace", lineno+1, err)
	}
	if cur != nil {
		return nil, fmt.Errorf("trace: unterminated trace record %q", cur.ID) //cablevet:ignore errwrapline whole-input error, no line to blame
	}
	return s, nil
}

// oracleWrite is the fmt-based writer that Write replaced; Write must emit
// exactly its bytes.
func oracleWrite(w io.Writer, s *Set) error {
	for _, c := range s.Classes() {
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			if strings.ContainsAny(t.ID, " \t\n") {
				return fmt.Errorf("trace: ID %q contains whitespace", t.ID)
			}
			if _, err := fmt.Fprintf(w, "trace %s\n", t.ID); err != nil {
				return err
			}
			for _, e := range t.Events {
				if _, err := fmt.Fprintf(w, "  %s\n", e); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w, "end"); err != nil {
				return err
			}
		}
	}
	return nil
}
