package learn

import (
	"slices"
	"strings"

	"repro/internal/trace"
)

// KTails implements the classic Biermann–Feldman k-tails learner as an
// alternative to sk-strings for Step 1a of the debugging method ("by
// varying parameters of the FA-learning algorithm, the author can choose
// to use a large FA that makes very fine distinctions among traces or a
// smaller FA that makes coarser distinctions"). Two PTA states are merged
// iff their k-tails — the exact sets of suffixes of length ≤ k that lead
// to acceptance — are equal. Unlike sk-strings, the criterion ignores
// frequencies, so k-tails is the better reference when the workload's
// sampling proportions are unreliable; k controls the coarseness.
type KTails struct {
	// K is the tail depth; larger K merges less. K ≤ 0 defaults to 2.
	K int
}

// Learn builds the PTA and merges k-tail-equivalent states until fixpoint.
func (l KTails) Learn(name string, traces []trace.Trace) (*Result, error) {
	k := l.K
	if k <= 0 {
		k = 2
	}
	p := buildPTA(traces)
	sc := newKScan()
	first := map[string]int32{} // signature → its first state in the scan
	var (
		sig   []byte
		pairs [][2]int32 // (first state of a signature, a later state with it)
	)
	for {
		// Pair every state with the first state of its k-tail signature,
		// then merge the pairs; recompute until no signature is shared
		// (signatures change as merges fold the automaton). The merge
		// order within a scan does not matter: folding reaches the same
		// partition.
		sc.order = p.states(sc.order)
		clear(first)
		pairs = pairs[:0]
		for _, s := range sc.order {
			sig = sc.ktailSignature(p, s, k, sig[:0])
			if f, ok := first[string(sig)]; ok {
				pairs = append(pairs, [2]int32{f, s})
			} else {
				first[string(sig)] = s
			}
		}
		if len(pairs) == 0 {
			break
		}
		for _, pr := range pairs {
			p.merge(pr[0], pr[1])
		}
	}
	return p.freeze(name)
}

// ktailSignature appends to dst the accepting suffixes of length ≤ k from
// state s, as keys in byte order joined by \x01. The end marker
// distinguishes "can stop here" from "has continuations".
func (sc *kscan) ktailSignature(p *pta, s int32, k int, dst []byte) []byte {
	sc.ent = sc.ent[:0]
	sc.buf = sc.buf[:0]
	sc.tails(p, s, 0, k)
	slices.SortFunc(sc.ent, func(a, b kstring) int { return strings.Compare(sc.keys[a.key], sc.keys[b.key]) })
	for i, ks := range sc.ent {
		if i > 0 {
			dst = append(dst, '\x01')
		}
		dst = append(dst, sc.keys[ks.key]...)
	}
	return dst
}

// tails appends the accepting suffixes of length ≤ k from state s, reached
// along the labels in buf, to ent.
func (sc *kscan) tails(p *pta, s int32, depth, k int) {
	n := &p.nodes[p.find(s)]
	if n.end > 0 {
		sc.buf = append(sc.buf, endMark...)
		sc.ent = append(sc.ent, kstring{key: sc.intern()})
		sc.buf = sc.buf[:len(sc.buf)-len(endMark)]
	}
	if depth == k {
		return
	}
	mark := len(sc.buf)
	for _, e := range n.edges {
		sc.buf = append(append(sc.buf, p.render[e.label]...), 0)
		sc.tails(p, e.to, depth+1, k)
		sc.buf = sc.buf[:mark]
	}
}
