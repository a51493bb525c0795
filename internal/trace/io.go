package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"

	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/scanio"
)

// The text format for trace files:
//
//	# comment lines and blank lines are ignored
//	trace <id>
//	  <event>
//	  ...
//	end
//
// Event lines use the syntax of event.Parse, which rejects names starting
// with '#', so no event line reads as a comment. IDs may not contain
// whitespace; "trace" with no ID assigns an empty ID. A line "trace = ..."
// is not a record header but an event binding a variable named trace.

// Write serializes the traces of a set (one record per trace, duplicates
// included) to w.
func Write(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	for _, c := range s.Classes() {
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			if err := WriteTrace(bw, t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteTrace serializes a single trace record. Given a *bufio.Writer, it
// renders the record straight into the writer's free buffer space.
func WriteTrace(w io.Writer, t Trace) error {
	if strings.ContainsAny(t.ID, " \t\n") {
		return fmt.Errorf("trace: ID %q contains whitespace", t.ID)
	}
	var buf []byte
	if bw, ok := w.(*bufio.Writer); ok {
		buf = bw.AvailableBuffer()
	}
	buf = append(buf, "trace "...)
	buf = append(buf, t.ID...)
	buf = append(buf, '\n')
	for _, e := range t.Events {
		buf = append(buf, "  "...)
		buf = e.AppendString(buf)
		buf = append(buf, '\n')
	}
	_, err := w.Write(append(buf, "end\n"...))
	return err
}

// Read parses a trace file into a Set.
//
// Each distinct event line is parsed once: every trace it occurs in shares
// the one event.Event, Uses slice included. Each record is keyed in one
// reused buffer, so only a new class allocates its key. The classes are
// laid out once the input is read: their events are cut from one slab
// and their ID lists from another, with capacities capped so that
// appending to one class's slice never writes into another's. Events
// returned in the set are therefore shared and must not be modified.
func Read(r io.Reader) (*Set, error) {
	sp := obs.StartSpan("trace.read")
	defer sp.End()
	sc := scanio.NewScanner(r)
	var (
		table   []event.Event        // each distinct event line, parsed
		lines   = map[string]int32{} // trimmed event line -> its index in table
		index   = map[string]int{}   // class key -> class
		keys    []string             // class keys, in class order
		pending []int32              // table indices of each class's events, then of the open record's
		ends    []int32              // end of each class's events in pending
		records []record             // each record's class and ID, in input order
		start   = -1                 // start of the open record in pending; -1 outside a record
		id      string               // the open record's ID
		key     []byte               // the open record's key, built as its events are read
		lineno  int
		events  int64
	)
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if word, single, ok := traceHeader(line); ok {
			if start >= 0 {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("nested trace record"))
			}
			if !single {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("trace ID must be a single word"))
			}
			start, id, key = len(pending), string(word), key[:0]
			continue
		}
		if string(line) == "end" {
			if start < 0 {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("end outside trace record"))
			}
			c, ok := index[string(key)]
			if ok {
				pending = pending[:start]
			} else {
				c = len(keys)
				keys = append(keys, string(key))
				index[keys[c]] = c
				ends = append(ends, int32(len(pending)))
			}
			records = append(records, record{c, id})
			start = -1
			continue
		}
		if start < 0 {
			return nil, scanio.LineError("trace", lineno, fmt.Errorf("event outside trace record"))
		}
		x, ok := lines[string(line)]
		if !ok {
			text := string(line)
			e, err := event.Parse(text)
			if err != nil {
				return nil, scanio.LineError("trace", lineno, err)
			}
			x = int32(len(table))
			table = append(table, e)
			lines[text] = x
		}
		// The same bytes as Trace.AppendKey.
		if len(pending) > start {
			key = append(key, "; "...)
		}
		key = table[x].AppendString(key)
		pending = append(pending, x)
		events++
	}
	if err := sc.Err(); err != nil {
		return nil, scanio.LineError("trace", lineno+1, err)
	}
	if start >= 0 {
		return nil, fmt.Errorf("trace: unterminated trace record %q", id) //cablevet:ignore errwrapline whole-input error, no line to blame
	}

	s := &Set{classes: make([]Class, len(keys)), keys: keys, index: index, total: len(records)}
	for _, rec := range records {
		s.classes[rec.class].Count++
	}
	evs := make([]event.Event, len(pending))
	for i, x := range pending {
		evs[i] = table[x]
	}
	ids := make([]string, len(records))
	var idFrom, evFrom int
	for c := range s.classes {
		cl := &s.classes[c]
		cl.IDs = ids[idFrom : idFrom : idFrom+cl.Count]
		idFrom += cl.Count
		if end := int(ends[c]); end > evFrom {
			cl.Rep.Events = evs[evFrom:end:end]
			evFrom = end
		}
	}
	for _, rec := range records {
		cl := &s.classes[rec.class]
		if len(cl.IDs) == 0 {
			cl.Rep.ID = rec.id
		}
		cl.IDs = append(cl.IDs, rec.id)
	}
	obs.Count("trace.read.lines", int64(lineno))
	obs.Count("trace.read.traces", int64(s.Total()))
	obs.Count("trace.read.events", events)
	return s, nil
}

// record is one trace record read by Read: its class and its ID. IDs are
// separate strings, not cut from one: a lattice built over the classes
// keeps their representatives' IDs as object names, and must not pin the
// IDs of every duplicate.
type record struct {
	class int
	id    string
}

// traceHeader reports whether a trimmed line is a record header
// "trace [<id>]", returning the word after "trace" and whether it is the
// only one. A line "trace = ..." is not a header: it is the event that
// binds a variable named trace.
func traceHeader(line []byte) (id []byte, single, ok bool) {
	rest, found := bytes.CutPrefix(line, []byte("trace"))
	if !found || len(rest) > 0 && rest[0] != ' ' {
		return nil, false, false
	}
	id = bytes.TrimSpace(rest) // only the left end: line is trimmed
	var more []byte
	if i := bytes.IndexFunc(id, unicode.IsSpace); i >= 0 {
		id, more = id[:i], id[i:]
	}
	if len(more) > 0 && string(id) == "=" {
		return nil, false, false
	}
	return id, len(more) == 0, true
}
