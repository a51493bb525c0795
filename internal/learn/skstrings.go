package learn

import (
	"math"
	"slices"
	"strings"

	"repro/internal/trace"
)

// Agreement selects how two states' top k-string sets must relate for the
// states to be merged (the AND/OR variants of Raman and Patrick).
type Agreement int

const (
	// And merges two states only if each state's top s-fraction of
	// k-strings is a subset of the other state's k-strings.
	And Agreement = iota
	// Or merges two states if either state's top k-strings are a subset of
	// the other's k-strings.
	Or
)

// Learner configures the sk-strings method. The zero value is not useful;
// start from DefaultLearner. Raising K and S lowers merging, giving a
// larger FA that makes finer distinctions among traces: the knob Section
// 2.1 describes for varying the reference FA.
type Learner struct {
	// K is the maximum k-string length considered when comparing states.
	K int
	// S is the fraction of probability mass (0 < S ≤ 1) that a state's
	// "top" k-strings must cover.
	S float64
	// Agreement is the merge criterion.
	Agreement Agreement
}

// DefaultLearner is the configuration used by Strauss and Cable summaries:
// 2-strings covering half the probability mass, AND agreement.
var DefaultLearner = Learner{K: 2, S: 0.5, Agreement: And}

// endMark terminates k-strings of traces that end before k events; it
// cannot collide with an event rendering because event operations cannot be
// empty.
const endMark = "$"

// Learn builds the prefix-tree acceptor of the traces and merges states per
// the sk-strings criterion, returning the learned automaton with
// frequencies. An empty trace set yields a single-state automaton accepting
// nothing. A K or S out of range (K ≤ 0; S ≤ 0, S > 1 or NaN) takes
// DefaultLearner's value.
func (l Learner) Learn(name string, traces []trace.Trace) (*Result, error) {
	if l.K <= 0 {
		l.K = DefaultLearner.K
	}
	if l.S <= 0 || l.S > 1 || math.IsNaN(l.S) {
		l.S = DefaultLearner.S
	}
	p := buildPTA(traces)
	sc := newKScan()
	for {
		a, b := sc.findMergeable(p, l)
		if a < 0 {
			break
		}
		p.merge(a, b)
	}
	return p.freeze(name)
}

// kscan is one Learn call's k-string scratch, reused by every scan.
//
// A k-string's key is the byte string label\x00…label\x00 of its labels'
// renderings, followed by endMark when the trace ends within k events.
// Keys are interned once per call, so states compare k-strings by ID, and
// ties in probability sort by the key bytes.
type kscan struct {
	ids  map[string]int32 // key bytes → key ID
	keys []string         // key ID → key bytes
	buf  []byte           // key bytes of the path being walked

	order []int32 // live states in BFS order
	// ent holds every state's k-strings: state i of order owns
	// ent[lo[i]:lo[i+1]], sorted by probability descending and then by
	// key, and the first ntop[i] of them are its top k-strings.
	ent  []kstring
	lo   []int32
	ntop []int32
	// at[key] is the index in ent of the key's latest entry, which lets a
	// state add the probabilities of repeated keys into one entry.
	at []int32
	// rows holds state i's key set as row i of ⌈len(keys)/64⌉ words.
	rows []uint64
}

// kstring is a bounded-length suffix string with its probability.
type kstring struct {
	key  int32
	prob float64
}

func newKScan() *kscan { return &kscan{ids: map[string]int32{}} }

// intern returns the ID of the key in buf.
func (sc *kscan) intern() int32 {
	id, ok := sc.ids[string(sc.buf)]
	if !ok {
		id = int32(len(sc.keys))
		key := string(sc.buf)
		sc.ids[key] = id
		sc.keys = append(sc.keys, key)
		sc.at = append(sc.at, -1)
	}
	return id
}

// findMergeable scans state pairs in BFS order and returns the first pair
// satisfying the agreement criterion, or (-1, -1).
func (sc *kscan) findMergeable(p *pta, l Learner) (int32, int32) {
	sc.order = p.states(sc.order)
	sc.ent, sc.lo, sc.ntop = sc.ent[:0], sc.lo[:0], sc.ntop[:0]
	for _, s := range sc.order {
		lo := len(sc.ent)
		sc.lo = append(sc.lo, int32(lo))
		sc.buf = sc.buf[:0]
		sc.kstrings(p, s, 0, l.K, 1, lo)
		strs := sc.ent[lo:]
		slices.SortFunc(strs, func(a, b kstring) int {
			if a.prob != b.prob {
				if a.prob > b.prob {
					return -1
				}
				return 1
			}
			return strings.Compare(sc.keys[a.key], sc.keys[b.key])
		})
		sc.ntop = append(sc.ntop, int32(top(strs, l.S)))
	}
	sc.lo = append(sc.lo, int32(len(sc.ent)))

	words := (len(sc.keys) + 63) / 64
	sc.rows = slices.Grow(sc.rows[:0], len(sc.order)*words)[:len(sc.order)*words]
	clear(sc.rows)
	for i := range sc.order {
		row := sc.rows[i*words : (i+1)*words]
		for _, ks := range sc.ent[sc.lo[i]:sc.lo[i+1]] {
			row[ks.key>>6] |= 1 << (ks.key & 63)
		}
	}

	for i := range sc.order {
		if sc.lo[i] == sc.lo[i+1] {
			// A state with no k-strings (dead) agrees with nothing; merging
			// it anywhere would be unconstrained generalization.
			continue
		}
		for j := i + 1; j < len(sc.order); j++ {
			if sc.lo[j] != sc.lo[j+1] && sc.agree(i, j, words, l.Agreement) {
				return sc.order[i], sc.order[j]
			}
		}
	}
	return -1, -1
}

// kstrings appends the strings of length ≤ k leaving state s, reached with
// probability prob along the labels in buf, to the entries of the state
// whose entries start at ent[lo]. Strings of length < k end with the end
// marker; strings cut off at length k do not.
func (sc *kscan) kstrings(p *pta, s int32, depth, k int, prob float64, lo int) {
	n := &p.nodes[p.find(s)]
	total := n.total
	if total == 0 {
		// Dead state with no endings: contributes nothing.
		return
	}
	if n.end > 0 {
		sc.buf = append(sc.buf, endMark...)
		sc.add(prob*float64(n.end)/float64(total), lo)
		sc.buf = sc.buf[:len(sc.buf)-len(endMark)]
	}
	if depth == k {
		if len(n.edges) > 0 {
			// Remaining mass for strings truncated at depth k.
			edgeMass := float64(total-n.end) / float64(total)
			if len(sc.buf) > 0 {
				sc.add(prob*edgeMass, lo)
			}
		}
		return
	}
	mark := len(sc.buf)
	for _, e := range n.edges {
		sc.buf = append(append(sc.buf, p.render[e.label]...), 0)
		sc.kstrings(p, e.to, depth+1, k, prob*float64(e.count)/float64(total), lo)
		sc.buf = sc.buf[:mark]
	}
}

// add records the k-string in buf with its probability, adding it to the
// state's entry for the same key if there is one. Distinct paths of a
// deterministic automaton have distinct keys unless a rendering contains
// a NUL byte, but repeats are summed in walk order all the same.
func (sc *kscan) add(prob float64, lo int) {
	id := sc.intern()
	if i := sc.at[id]; int(i) >= lo && int(i) < len(sc.ent) && sc.ent[i].key == id {
		sc.ent[i].prob += prob
		return
	}
	sc.at[id] = int32(len(sc.ent))
	sc.ent = append(sc.ent, kstring{key: id, prob: prob})
}

// top returns the length of the prefix of strs covering at least fraction
// s of the probability mass.
func top(strs []kstring, s float64) int {
	var mass, limit float64
	for _, ks := range strs {
		limit += ks.prob
	}
	limit *= s
	for i, ks := range strs {
		mass += ks.prob
		if mass >= limit-1e-12 {
			return i + 1
		}
	}
	return len(strs)
}

// agree applies the agreement criterion to the k-strings of states i and
// j of the scan, both non-empty.
func (sc *kscan) agree(i, j, words int, agreement Agreement) bool {
	iInJ := sc.covered(i, j, words)
	if agreement == Or {
		return iInJ || sc.covered(j, i, words)
	}
	return iInJ && sc.covered(j, i, words)
}

// covered reports whether every top k-string of state i is a k-string of
// state j.
func (sc *kscan) covered(i, j, words int) bool {
	row := sc.rows[j*words : (j+1)*words]
	for _, ks := range sc.ent[sc.lo[i] : sc.lo[i]+sc.ntop[i]] {
		if row[ks.key>>6]&(1<<(ks.key&63)) == 0 {
			return false
		}
	}
	return true
}
