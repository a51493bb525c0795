package event

// AppendString appends the event's canonical rendering (exactly what String
// returns) to dst and returns the extended slice. Hot paths that need an
// event's rendering as a lookup key can reuse one buffer across calls and
// index maps with string(buf), which the compiler optimizes to an
// allocation-free lookup.
func (e Event) AppendString(dst []byte) []byte {
	if e.Def != "" {
		dst = append(dst, e.Def...)
		dst = append(dst, " = "...)
	}
	dst = append(dst, e.Op...)
	dst = append(dst, '(')
	for i, u := range e.Uses {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, u...)
	}
	dst = append(dst, ')')
	return dst
}

// Interner assigns dense integer symbols to events, identified by their
// canonical rendering: two events map to the same symbol iff their String
// renderings are equal. Compiled automaton simulators use an Interner to
// replace per-step string comparison of transition labels with integer
// symbol IDs.
//
// An Interner is safe for concurrent readers once interning is complete;
// Intern itself must not race with other calls.
type Interner struct {
	ids    map[string]int
	events []Event
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int)}
}

// Intern returns the symbol for e, assigning the next dense ID (0, 1, ...)
// on first sight.
func (in *Interner) Intern(e Event) int {
	key := e.String()
	if id, ok := in.ids[key]; ok {
		return id
	}
	id := len(in.events)
	in.ids[key] = id
	in.events = append(in.events, e)
	return id
}

// LookupKey returns the symbol of the event whose canonical rendering (see
// AppendString) is exactly key, or ok=false if no such event was interned.
// The []byte-keyed map access compiles to an allocation-free lookup, so
// simulators can map trace events to symbols with zero steady-state
// allocations.
func (in *Interner) LookupKey(key []byte) (id int, ok bool) {
	id, ok = in.ids[string(key)]
	return id, ok
}

// Len returns the number of distinct symbols interned.
func (in *Interner) Len() int { return len(in.events) }

// Event returns the event assigned symbol id.
func (in *Interner) Event(id int) Event { return in.events[id] }
