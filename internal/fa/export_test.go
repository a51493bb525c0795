package fa

import (
	"sort"

	"repro/internal/trace"
)

// OracleEnumerate exposes the reference Enumerate to the external test
// package, whose tests reach the specs corpus (specs imports fa).
func OracleEnumerate(f *FA, maxLen, limit int) []trace.Trace {
	return f.oracleEnumerate(maxLen, limit)
}

// Accepts reports membership of the trace in the DFA's language. Events
// outside the analysis alphabet are rejected outright. The engine never
// runs a DFA on a trace; the tests use this to check it against the NFA.
func (d *DFA) Accepts(t trace.Trace) bool {
	s := d.Start
	for _, e := range t.Events {
		key := e.String()
		c := sort.Search(len(d.Alphabet), func(i int) bool { return d.Alphabet[i].String() >= key })
		if c == len(d.Alphabet) || d.Alphabet[c].String() != key {
			return false
		}
		s = int(d.Delta[s][c])
	}
	return d.Accept[s]
}
