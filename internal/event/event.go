// Package event models the program events that temporal specifications talk
// about.
//
// The paper's specifications are finite automata whose transition labels are
// parameterized call events such as
//
//	X = fopen()     a call to fopen whose return value is bound to X
//	fclose(X)       a call to fclose taking X as an argument
//	Y = XCreateGC(D)
//
// Two representations are used:
//
//   - Event is the symbolic form appearing in specifications and in scenario
//     traces, where arguments are variable names (X, Y, ...).
//   - Concrete is the form appearing in whole-program execution traces, where
//     arguments are runtime object identities. The Strauss front end
//     (internal/mine) abstracts Concrete events into Events by renaming
//     object identities to canonical variable names.
package event

import (
	"fmt"
	"sort"
	"strings"
)

// Event is a symbolic program event: an operation with an optional name bound
// to its result and a (possibly empty) list of argument names.
//
// The zero Event is invalid; construct events with Call or Parse.
type Event struct {
	// Op is the operation name, e.g. "fopen" or "XtAddTimeOut".
	Op string
	// Def is the variable bound to the operation's result, or "" when the
	// result is unused or the operation returns nothing.
	Def string
	// Uses lists the variables passed as arguments, in call order.
	Uses []string
}

// Call constructs an event with no bound result: op(uses...).
func Call(op string, uses ...string) Event {
	return Event{Op: op, Uses: uses}
}

// Bind constructs an event whose result is bound to def: def = op(uses...).
func Bind(def, op string, uses ...string) Event {
	return Event{Op: op, Def: def, Uses: uses}
}

// String renders the event in the paper's syntax: "X = fopen()" or
// "fclose(X)". The rendering is canonical: Parse(e.String()) == e for every
// valid event, and two events are equal iff their strings are equal.
func (e Event) String() string {
	return string(e.AppendString(make([]byte, 0, 24)))
}

// Equal reports whether two events are identical.
func (e Event) Equal(f Event) bool {
	if e.Op != f.Op || e.Def != f.Def || len(e.Uses) != len(f.Uses) {
		return false
	}
	for i := range e.Uses {
		if e.Uses[i] != f.Uses[i] {
			return false
		}
	}
	return true
}

// Names returns the sorted set of distinct variable names the event mentions.
func (e Event) Names() []string {
	set := map[string]bool{}
	if e.Def != "" {
		set[e.Def] = true
	}
	for _, u := range e.Uses {
		if u != "" {
			set[u] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Mentions reports whether the event defines or uses the given name.
func (e Event) Mentions(name string) bool {
	if name == "" {
		return false
	}
	if e.Def == name {
		return true
	}
	for _, u := range e.Uses {
		if u == name {
			return true
		}
	}
	return false
}

// Parse parses the canonical rendering produced by String:
//
//	[def =] op ( [use {, use}] )
//
// Whitespace around tokens is ignored. No name may start with '#', the
// comment marker of the trace, automaton and label file formats, so every
// event Parse accepts can be written to those files and read back. Parse
// returns an error for malformed input rather than guessing.
//
// The event's names are substrings of s, and its Uses is allocated once, at
// its final length: parsing an event with arguments allocates one object,
// and an event without arguments none.
func Parse(s string) (Event, error) {
	var e Event
	rest := strings.TrimSpace(s)
	if eq := strings.Index(rest, "="); eq >= 0 {
		def := strings.TrimSpace(rest[:eq])
		if !validName(def, "(), \t\n\r") {
			return e, fmt.Errorf("event: bad result binding in %q", s)
		}
		e.Def = def
		rest = strings.TrimSpace(rest[eq+1:])
	}
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return e, fmt.Errorf("event: missing argument list in %q", s)
	}
	op := strings.TrimSpace(rest[:open])
	if !validName(op, "(), \t\n\r") {
		return e, fmt.Errorf("event: bad operation name in %q", s)
	}
	e.Op = op
	args := strings.TrimSpace(rest[open+1 : len(rest)-1])
	if args == "" {
		return e, nil
	}
	e.Uses = make([]string, 0, strings.Count(args, ",")+1)
	for more := true; more; {
		var a string
		a, args, more = strings.Cut(args, ",")
		a = strings.TrimSpace(a)
		if !validName(a, "() \t\n\r") {
			return e, fmt.Errorf("event: bad argument in %q", s)
		}
		e.Uses = append(e.Uses, a)
	}
	return e, nil
}

// validName reports whether name is non-empty, does not start with '#',
// and contains none of the bytes in banned.
func validName(name, banned string) bool {
	return name != "" && name[0] != '#' && !strings.ContainsAny(name, banned)
}

// MustParse is Parse that panics on error; it is intended for literals in
// tests and spec tables.
func MustParse(s string) Event {
	e, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return e
}

// ParseAll parses a list of events, one per element.
func ParseAll(ss ...string) ([]Event, error) {
	out := make([]Event, 0, len(ss))
	for _, s := range ss {
		e, err := Parse(s)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// ObjID identifies a runtime object in a concrete execution trace. Zero
// means "no object" (e.g. an unused return value).
type ObjID int

// Concrete is an event from a whole-program execution trace: the operation
// together with the runtime identities of its result and arguments.
type Concrete struct {
	Op   string
	Def  ObjID
	Uses []ObjID
}

// String renders the concrete event with object identities as #n.
func (c Concrete) String() string {
	var b strings.Builder
	if c.Def != 0 {
		fmt.Fprintf(&b, "#%d = ", int(c.Def))
	}
	b.WriteString(c.Op)
	b.WriteByte('(')
	for i, u := range c.Uses {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "#%d", int(u))
	}
	b.WriteByte(')')
	return b.String()
}
