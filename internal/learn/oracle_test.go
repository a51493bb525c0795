package learn_test

// Reference implementations of the sk-strings learner, the prefix-tree
// acceptor and k-tails as they were before the learner moved to interned
// labels: the PTA keys each state's edges by label rendering in a map,
// every scan rebuilds each state's k-strings by string concatenation and
// aggregates them through a map, and every state pair's agreement builds
// two fresh key sets. The differential tests pin the production learners
// to these, byte for byte. The one change from that code is the range
// check on S, which now treats NaN as out of range, as Learner.Learn does.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/trace"
)

type oraclePTA struct {
	uf    []int
	nodes []*oracleNode
}

type oracleNode struct {
	out     map[string]*oracleEdge
	end     int
	through int
}

type oracleEdge struct {
	label event.Event
	to    int
	count int
}

func oracleBuildPTA(traces []trace.Trace) *oraclePTA {
	p := &oraclePTA{}
	root := p.newNode()
	for _, t := range traces {
		cur := root
		p.nodes[cur].through++
		for _, e := range t.Events {
			key := e.String()
			edge, ok := p.nodes[cur].out[key]
			if !ok {
				next := p.newNode()
				edge = &oracleEdge{label: e, to: next}
				p.nodes[cur].out[key] = edge
			}
			edge.count++
			cur = edge.to
			p.nodes[cur].through++
		}
		p.nodes[cur].end++
	}
	return p
}

func (p *oraclePTA) newNode() int {
	id := len(p.nodes)
	p.nodes = append(p.nodes, &oracleNode{out: map[string]*oracleEdge{}})
	p.uf = append(p.uf, id)
	return id
}

func (p *oraclePTA) find(x int) int {
	for p.uf[x] != x {
		p.uf[x] = p.uf[p.uf[x]]
		x = p.uf[x]
	}
	return x
}

func (p *oraclePTA) merge(a, b int) {
	a, b = p.find(a), p.find(b)
	if a == b {
		return
	}
	if b < a {
		a, b = b, a
	}
	p.uf[b] = a
	na, nb := p.nodes[a], p.nodes[b]
	na.end += nb.end
	na.through += nb.through
	for key, eb := range nb.out {
		if ea, ok := na.out[key]; ok {
			ea.count += eb.count
			p.merge(ea.to, eb.to)
			a = p.find(a)
			na = p.nodes[a]
		} else {
			na.out[key] = eb
		}
	}
	nb.out = nil
}

func (p *oraclePTA) states() []int {
	root := p.find(0)
	seen := map[int]bool{root: true}
	order := []int{root}
	for i := 0; i < len(order); i++ {
		s := order[i]
		for _, key := range oracleSortedKeys(p.nodes[s].out) {
			to := p.find(p.nodes[s].out[key].to)
			if !seen[to] {
				seen[to] = true
				order = append(order, to)
			}
		}
	}
	return order
}

func oracleSortedKeys(m map[string]*oracleEdge) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (p *oraclePTA) outTotal(s int) int {
	n := p.nodes[s]
	total := n.end
	for _, e := range n.out {
		total += e.count
	}
	return total
}

func (p *oraclePTA) freeze(name string) (*learn.Result, error) {
	order := p.states()
	number := map[int]fa.State{}
	b := fa.NewBuilder(name)
	for _, s := range order {
		number[s] = b.State()
	}
	res := &learn.Result{AcceptCount: map[fa.State]int{}}
	b.Start(number[p.find(0)])
	for _, s := range order {
		if p.nodes[s].end > 0 {
			b.Accept(number[s])
			res.AcceptCount[number[s]] = p.nodes[s].end
		}
	}
	for _, s := range order {
		n := p.nodes[s]
		for _, key := range oracleSortedKeys(n.out) {
			e := n.out[key]
			b.Edge(number[s], e.label, number[p.find(e.to)])
			res.TransCount = append(res.TransCount, e.count)
		}
	}
	f, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("learn: %v", err)
	}
	res.FA = f
	if len(res.TransCount) != f.NumTransitions() {
		return nil, fmt.Errorf("learn: internal error: %d counts for %d transitions",
			len(res.TransCount), f.NumTransitions())
	}
	return res, nil
}

func oraclePTAResult(name string, traces []trace.Trace) (*learn.Result, error) {
	return oracleBuildPTA(traces).freeze(name)
}

const oracleEndMark = "$"

type oracleKString struct {
	key  string
	prob float64
}

func oracleLearn(l learn.Learner, name string, traces []trace.Trace) (*learn.Result, error) {
	if l.K <= 0 {
		l.K = learn.DefaultLearner.K
	}
	if l.S <= 0 || l.S > 1 || l.S != l.S {
		l.S = learn.DefaultLearner.S
	}
	p := oracleBuildPTA(traces)
	for {
		a, b := oracleFindMergeable(l, p)
		if a < 0 {
			break
		}
		p.merge(a, b)
	}
	return p.freeze(name)
}

func oracleFindMergeable(l learn.Learner, p *oraclePTA) (int, int) {
	order := p.states()
	strs := make(map[int][]oracleKString, len(order))
	for _, s := range order {
		strs[s] = p.kstrings(s, l.K)
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if oracleAgree(l, strs[order[i]], strs[order[j]]) {
				return order[i], order[j]
			}
		}
	}
	return -1, -1
}

func (p *oraclePTA) kstrings(s int, k int) []oracleKString {
	var out []oracleKString
	var walk func(state int, depth int, prefix string, prob float64)
	walk = func(state int, depth int, prefix string, prob float64) {
		state = p.find(state)
		total := p.outTotal(state)
		if total == 0 {
			return
		}
		n := p.nodes[state]
		if n.end > 0 {
			out = append(out, oracleKString{key: prefix + oracleEndMark, prob: prob * float64(n.end) / float64(total)})
		}
		if depth == k {
			if len(n.out) > 0 {
				edgeMass := float64(total-n.end) / float64(total)
				if prefix != "" {
					out = append(out, oracleKString{key: prefix, prob: prob * edgeMass})
				}
			}
			return
		}
		for _, key := range oracleSortedKeys(n.out) {
			e := n.out[key]
			walk(e.to, depth+1, prefix+key+"\x00", prob*float64(e.count)/float64(total))
		}
	}
	walk(s, 0, "", 1)
	agg := map[string]float64{}
	for _, ks := range out {
		agg[ks.key] += ks.prob
	}
	res := make([]oracleKString, 0, len(agg))
	for key, prob := range agg {
		res = append(res, oracleKString{key: key, prob: prob})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].prob != res[j].prob {
			return res[i].prob > res[j].prob
		}
		return res[i].key < res[j].key
	})
	return res
}

func oracleTop(strs []oracleKString, s float64) []oracleKString {
	var mass, limit float64
	for _, ks := range strs {
		limit += ks.prob
	}
	limit *= s
	for i, ks := range strs {
		mass += ks.prob
		if mass >= limit-1e-12 {
			return strs[:i+1]
		}
	}
	return strs
}

func oracleAgree(l learn.Learner, a, b []oracleKString) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	inB := oracleKeySet(b)
	inA := oracleKeySet(a)
	aTop := oracleTop(a, l.S)
	bTop := oracleTop(b, l.S)
	aInB := oracleCovered(aTop, inB)
	bInA := oracleCovered(bTop, inA)
	if l.Agreement == learn.Or {
		return aInB || bInA
	}
	return aInB && bInA
}

func oracleKeySet(strs []oracleKString) map[string]bool {
	m := make(map[string]bool, len(strs))
	for _, ks := range strs {
		m[ks.key] = true
	}
	return m
}

func oracleCovered(topStrs []oracleKString, in map[string]bool) bool {
	for _, ks := range topStrs {
		if !in[ks.key] {
			return false
		}
	}
	return true
}

func oracleKTails(l learn.KTails, name string, traces []trace.Trace) (*learn.Result, error) {
	k := l.K
	if k <= 0 {
		k = 2
	}
	p := oracleBuildPTA(traces)
	for {
		merged := false
		states := p.states()
		groups := map[string][]int{}
		for _, s := range states {
			sig := p.ktailSignature(s, k)
			groups[sig] = append(groups[sig], s)
		}
		keys := make([]string, 0, len(groups))
		for key := range groups {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			group := groups[key]
			if len(group) < 2 {
				continue
			}
			base := p.find(group[0])
			for _, other := range group[1:] {
				if p.find(other) != base {
					p.merge(base, other)
					base = p.find(base)
					merged = true
				}
			}
		}
		if !merged {
			break
		}
	}
	return p.freeze(name)
}

func (p *oraclePTA) ktailSignature(s int, k int) string {
	var tails []string
	var walk func(state int, depth int, prefix string)
	walk = func(state int, depth int, prefix string) {
		state = p.find(state)
		n := p.nodes[state]
		if n.end > 0 {
			tails = append(tails, prefix+oracleEndMark)
		}
		if depth == k {
			return
		}
		for _, key := range oracleSortedKeys(n.out) {
			walk(n.out[key].to, depth+1, prefix+key+"\x00")
		}
	}
	walk(s, 0, "")
	sort.Strings(tails)
	return strings.Join(tails, "\x01")
}
