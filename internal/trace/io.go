package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/maphash"
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
	var buf []byte
	if bw, ok := w.(*bufio.Writer); ok {
		buf = bw.AvailableBuffer()
	}
	buf, err := AppendRecord(buf, t)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendRecord appends t's record in the text format to dst and returns
// the extended slice: the bytes WriteTrace writes. An ID containing
// whitespace would not read back, so it is an error, and dst comes back
// unextended.
func AppendRecord(dst []byte, t Trace) ([]byte, error) {
	if strings.ContainsAny(t.ID, " \t\n") {
		return dst, fmt.Errorf("trace: ID %q contains whitespace", t.ID)
	}
	dst = append(dst, "trace "...)
	dst = append(dst, t.ID...)
	dst = append(dst, '\n')
	for _, e := range t.Events {
		dst = append(dst, "  "...)
		dst = e.AppendString(dst)
		dst = append(dst, '\n')
	}
	return append(dst, "end\n"...), nil
}

// Read parses a trace file into a Set.
//
// A read allocates in proportion to what the set keeps, not to the
// records it reads. Each distinct event line is parsed once, into two
// objects: its text, which the event's names share, and its use list.
// Every trace it occurs in shares that one event.Event, Uses slice
// included. Each record's class key is rendered into one byte slab as
// its events are read and found through a table of class numbers over
// that slab; a repeat truncates the slab again. The record's ID goes into
// one of two more slabs: one for the first ID of each class, and one for
// the rest. A lattice built over the classes keeps their first IDs as
// object names, so with two slabs a cached lattice does not pin the IDs
// of every duplicate. Once the input is read, each slab becomes one
// string that the keys and IDs are cut from, the classes' events are cut
// from one slab of events, and their ID lists from one slice, each with
// its capacity capped so that appending to one class's slice never writes
// into another's. Events returned in the set are therefore shared and
// must not be modified.
func Read(r io.Reader) (*Set, error) {
	sp := obs.StartSpan("trace.read")
	defer sp.End()
	sc := scanio.NewScanner(r)
	// The tables start at sizes that hold a typical add batch. The int32
	// tables come from one allocation and the byte slabs from another,
	// each cut with a capped capacity, so that an append which outgrows
	// one table reallocates it instead of writing into the next.
	ints := make([]int32, readPending+readRecords+readSlots)
	slab := make([]byte, readKeyBytes+2*readIDBytes)
	const recordsAt, slotsAt = readPending, readPending + readRecords
	const repsAt, restAt = readKeyBytes, readKeyBytes + readIDBytes
	var (
		table   = make([]event.Event, 0, readEvents)             // each distinct event line, parsed
		lines   = map[string]int32{}                             // trimmed event line -> its index in table
		pending = ints[:0:recordsAt]                             // table indices of each class's events, then of the open record's
		records = ints[recordsAt:recordsAt:slotsAt]              // each record's class, in input order
		byKey   = classTable{ints[slotsAt:], maphash.MakeSeed()} // class keys -> classes
		ends    = make([]classEnd, 0, readRecords)               // where each class's events, key and first ID end
		keys    = slab[:0:repsAt]                                // class keys, then the open record's
		reps    = slab[repsAt:repsAt:restAt]                     // each class's first ID, then the open record's
		rest    = slab[restAt:restAt]                            // the other records' IDs, each followed by a newline
		start   = -1                                             // start of the open record in pending; -1 outside a record
		keyFrom int                                              // start of the open record's key in keys
		idFrom  int                                              // start of the open record's ID in reps
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
			start, keyFrom, idFrom = len(pending), len(keys), len(reps)
			reps = append(reps, word...)
			continue
		}
		if string(line) == "end" {
			if start < 0 {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("end outside trace record"))
			}
			c, slot := byKey.find(keys[keyFrom:], keys, ends)
			if c >= 0 {
				pending, keys = pending[:start], keys[:keyFrom]
				rest = append(append(rest, reps[idFrom:]...), '\n')
				reps = reps[:idFrom]
			} else {
				c = len(ends)
				ends = append(grow(ends, 1), classEnd{events: len(pending), key: len(keys), id: len(reps)})
				byKey.insert(slot, keys, ends)
			}
			records = append(records, int32(c))
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
		// The same bytes as Trace.AppendKey. The event renders in at most
		// twice its line plus two bytes: Parse drops only whitespace, and
		// the rendering adds a space around "=" and after each ",".
		keys = grow(keys, 2*len(line)+4)
		if len(pending) > start {
			keys = append(keys, "; "...)
		}
		keys = table[x].AppendString(keys)
		pending = append(grow(pending, 1), x)
		events++
	}
	if err := sc.Err(); err != nil {
		return nil, scanio.LineError("trace", lineno+1, err)
	}
	if start >= 0 {
		return nil, fmt.Errorf("trace: unterminated trace record %q", string(reps[idFrom:])) //cablevet:ignore errwrapline whole-input error, no line to blame
	}

	n := len(ends)
	s := &Set{classes: make([]Class, n), keys: make([]string, n), index: make(map[string]int, n), total: len(records)}
	keyText, from := string(keys), 0
	for c, end := range ends {
		s.keys[c] = keyText[from:end.key]
		s.index[s.keys[c]] = c
		from = end.key
	}
	for _, c := range records {
		s.classes[c].Count++
	}
	evs := make([]event.Event, len(pending))
	for i, x := range pending {
		evs[i] = table[x]
	}
	ids := make([]string, len(records))
	repText, restText := string(reps), string(rest)
	var idAt, evFrom, repFrom int
	for c, end := range ends {
		cl := &s.classes[c]
		cl.IDs = ids[idAt : idAt : idAt+cl.Count]
		idAt += cl.Count
		if end.events > evFrom {
			cl.Rep.Events = evs[evFrom:end.events:end.events]
			evFrom = end.events
		}
		cl.Rep.ID, repFrom = repText[repFrom:end.id], end.id
	}
	for _, c := range records {
		cl := &s.classes[c]
		id := cl.Rep.ID
		if len(cl.IDs) > 0 {
			id, restText, _ = strings.Cut(restText, "\n")
		}
		cl.IDs = append(cl.IDs, id)
	}
	obs.Count("trace.read.lines", int64(lineno))
	obs.Count("trace.read.traces", int64(s.Total()))
	obs.Count("trace.read.events", events)
	return s, nil
}

// Read's tables start at these sizes, which hold an add batch of four
// traces of up to six events each. The key slab, the pending indices and
// the class ends double when full (grow).
const (
	readEvents   = 16  // distinct event lines
	readPending  = 32  // events of distinct records
	readRecords  = 8   // records, and classes
	readSlots    = 16  // class table slots: 12 classes at most before it grows
	readKeyBytes = 256 // class keys
	readIDBytes  = 64  // each of the two ID slabs
)

// grow returns s with room for n more elements. A full table moves to
// twice its capacity, where append grows a slice of 256 or more elements
// by about 1.25× at a time and so would copy a large read's keys several
// times over.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]T, 0, max(2*cap(s), len(s)+n)), s...)
}

// classEnd is where a class read by Read ends in its tables: its events in
// the pending indices, its key in the key slab and its first ID in the
// representatives' ID slab. Each starts where the previous class's ends.
type classEnd struct {
	events, key, id int
}

// classTable finds the classes of a read by their keys. It is open
// addressing with linear probing over a power-of-two array of class
// numbers plus one (0 = empty), shaped like concept's intent index, and it
// stores no keys: class c's key is its stretch of the key slab, which
// hash/maphash hashes without allocating.
type classTable struct {
	slots []int32
	seed  maphash.Seed
}

// find returns the class whose key is key, or -1 and the empty slot where
// key belongs.
func (t *classTable) find(key, keys []byte, ends []classEnd) (class int, slot uint64) {
	mask := uint64(len(t.slots) - 1)
	for i := maphash.Bytes(t.seed, key) & mask; ; i = (i + 1) & mask {
		c := int(t.slots[i]) - 1
		if c < 0 || bytes.Equal(classKey(keys, ends, c), key) {
			return c, i
		}
	}
}

// insert records the last class of ends in the empty slot find returned
// for its key, and doubles the table once it is more than three quarters
// full.
func (t *classTable) insert(slot uint64, keys []byte, ends []classEnd) {
	n := len(ends)
	t.slots[slot] = int32(n)
	if n*4 <= len(t.slots)*3 {
		return
	}
	t.slots = make([]int32, 2*len(t.slots))
	mask := uint64(len(t.slots) - 1)
	for c := range ends {
		i := maphash.Bytes(t.seed, classKey(keys, ends, c)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(c + 1)
	}
}

// classKey returns class c's key in the key slab.
func classKey(keys []byte, ends []classEnd, c int) []byte {
	from := 0
	if c > 0 {
		from = ends[c-1].key
	}
	return keys[from:ends[c].key]
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
