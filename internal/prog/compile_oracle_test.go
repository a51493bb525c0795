package prog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/fa"
)

// oracleCompile is Compile as it was before the ε-NFA moved into package
// fa (fa.EpsNFA): its own ε-NFA, wiring and ε-elimination. It is kept as
// the reference TestCompileMatchesOracle pins Compile to.
func oracleCompile(p *Program) (*fa.FA, error) {
	n := &enfa{eps: map[int][]int{}}
	start := n.state()
	end := n.wire(p.Body, start)
	return n.freeze(p.Name, start, end)
}

type enfa struct {
	numStates int
	eps       map[int][]int
	edges     []enfaEdge
}

type enfaEdge struct {
	from, to int
	label    event.Event
}

func (n *enfa) state() int {
	s := n.numStates
	n.numStates++
	return s
}

func (n *enfa) addEps(a, b int) { n.eps[a] = append(n.eps[a], b) }

func (n *enfa) wire(stmts []Stmt, from int) int {
	cur := from
	for _, s := range stmts {
		switch s := s.(type) {
		case Call:
			next := n.state()
			n.edges = append(n.edges, enfaEdge{from: cur, to: next, label: s.event()})
			cur = next
		case Skip:
		case Loop:
			head := n.state()
			n.addEps(cur, head)
			tail := n.wire(s.Body, head)
			n.addEps(tail, head)
			exit := n.state()
			n.addEps(head, exit)
			cur = exit
		case Opt:
			exit := n.state()
			tail := n.wire(s.Body, cur)
			n.addEps(tail, exit)
			n.addEps(cur, exit)
			cur = exit
		case Choice:
			exit := n.state()
			for _, alt := range s.Alts {
				tail := n.wire(alt, cur)
				n.addEps(tail, exit)
			}
			cur = exit
		default:
			panic(fmt.Sprintf("prog: unknown statement %T", s))
		}
	}
	return cur
}

func (n *enfa) freeze(name string, start, end int) (*fa.FA, error) {
	closure := make([][]int, n.numStates)
	for s := 0; s < n.numStates; s++ {
		seen := map[int]bool{s: true}
		stack := []int{s}
		var cl []int
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cl = append(cl, cur)
			for _, t := range n.eps[cur] {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
		closure[s] = cl
	}
	outBy := map[int][]enfaEdge{}
	for _, e := range n.edges {
		outBy[e.from] = append(outBy[e.from], e)
	}
	b := fa.NewBuilder(name)
	states := b.States(n.numStates)
	b.Start(states[start])
	for s := 0; s < n.numStates; s++ {
		for _, t := range closure[s] {
			if t == end {
				b.Accept(states[s])
			}
			for _, e := range outBy[t] {
				b.Edge(states[s], e.label, states[e.to])
			}
		}
	}
	built, err := b.Build()
	if err != nil {
		return nil, err
	}
	return built.Trim(), nil
}

// nestedProgram is a random program over two variables whose blocks may
// be empty or hold only skips, so loops and options wire ε-cycles and
// ε-chains, nested up to four deep.
func nestedProgram(rng *rand.Rand) *Program {
	vars := []string{"X", "Y"}
	var gen func(depth int) []Stmt
	gen = func(depth int) []Stmt {
		var out []Stmt
		for i := rng.Intn(4); i > 0; i-- {
			switch k := rng.Intn(7); {
			case k == 0 && depth < 4:
				out = append(out, Loop{Body: gen(depth + 1)})
			case k == 1 && depth < 4:
				out = append(out, Opt{Body: gen(depth + 1)})
			case k == 2 && depth < 4:
				alts := make([][]Stmt, 1+rng.Intn(3))
				for j := range alts {
					alts[j] = gen(depth + 1)
				}
				out = append(out, Choice{Alts: alts})
			case k == 3:
				out = append(out, Skip{})
			case k == 4:
				out = append(out, Call{Def: vars[rng.Intn(2)], Op: "get"})
			default:
				out = append(out, Call{Op: []string{"use", "read", "put"}[rng.Intn(3)], Uses: vars[:1+rng.Intn(2)]})
			}
		}
		return out
	}
	return &Program{Name: "nested", Body: gen(0)}
}

// TestCompileMatchesOracle pins Compile on fa.EpsNFA to the previous
// ε-NFA: identical fa.Write bytes on the package's test programs and
// their projections, and on random programs.
func TestCompileMatchesOracle(t *testing.T) {
	progs := []*Program{
		mustParse(leakySrc),
		mustParse(`prog c { choice { a(); } or { b(); } or { skip; } opt { z(); } }`),
		mustParse(`prog spin { loop { tick(); } }`),
		mustParse(`prog fixed { X := fopen(); loop { fread(X); } fclose(X); }`),
		mustParse(`prog two { X := fopen(); Y := popen(); copy(X, Y); loop { fread(X); } fclose(X); choice { pclose(Y); } or { skip; } }`),
		{Name: "empty"},
	}
	for _, p := range progs[:len(progs)-1] {
		for _, v := range p.Vars() {
			progs = append(progs, p.Project(v))
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		progs = append(progs, randomProgram(rng), nestedProgram(rng))
	}
	for _, p := range progs {
		got, err := p.Compile()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		want, err := oracleCompile(p)
		if err != nil {
			t.Fatalf("%s: oracle: %v", p, err)
		}
		var g, w strings.Builder
		if err := fa.Write(&g, got); err != nil {
			t.Fatal(err)
		}
		if err := fa.Write(&w, want); err != nil {
			t.Fatal(err)
		}
		if g.String() != w.String() {
			t.Fatalf("%s compiles to\n%s\nthe oracle to\n%s", p, g.String(), w.String())
		}
	}
}
