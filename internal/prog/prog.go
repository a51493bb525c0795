// Package prog models the programs that verification tools analyze: a
// small imperative language over event-producing calls, with
// nondeterministic branching and looping standing in for data-dependent
// control flow.
//
// The paper's verifier "analyzes the program and reports violation
// traces"; its miner consumes "data collected during a few runs of one or
// more programs". This package supplies both inputs from one artifact:
//
//   - Compile flattens a program's control-flow graph into an event
//     automaton (every path's event sequence is a word), which
//     verify.Static checks against a specification exhaustively; and
//   - Execute walks the program concretely, resolving nondeterminism at
//     random, allocating fresh object identities for each assignment, and
//     producing the whole-program runs the Strauss front end slices into
//     scenario traces.
//
// Programs are written in a small text syntax:
//
//	prog leaky {
//	  x := fopen();
//	  loop { fread(x); }
//	  choice { fclose(x); } or { skip; }
//	}
//
// Statements: calls ("x := op(a, b);" or "op(a);"), "skip;", "loop { ... }"
// (zero or more iterations), "opt { ... }" (zero or one), and
// "choice { ... } or { ... }" (one branch, two or more alternatives).
package prog

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/mine"
)

// Stmt is a program statement.
type Stmt interface{ stmt() }

// Call invokes an operation, optionally binding its result to a variable.
type Call struct {
	// Def is the variable assigned, or "" for a bare call.
	Def string
	// Op is the operation name.
	Op string
	// Uses are the argument variables.
	Uses []string
}

// Skip does nothing.
type Skip struct{}

// Loop executes its body zero or more times.
type Loop struct{ Body []Stmt }

// Opt executes its body zero or one time.
type Opt struct{ Body []Stmt }

// Choice executes exactly one alternative.
type Choice struct{ Alts [][]Stmt }

func (Call) stmt()   {}
func (Skip) stmt()   {}
func (Loop) stmt()   {}
func (Opt) stmt()    {}
func (Choice) stmt() {}

// Program is a named statement sequence.
type Program struct {
	Name string
	Body []Stmt
}

// event renders the call as the symbolic event it emits.
func (c Call) event() event.Event {
	return event.Event{Op: c.Op, Def: c.Def, Uses: append([]string(nil), c.Uses...)}
}

// Compile flattens the program into an automaton whose language is the set
// of event sequences of terminating executions. Construction goes through
// an ε-NFA (branch/loop wiring) followed by ε-elimination.
func (p *Program) Compile() (*fa.FA, error) {
	var n fa.EpsNFA
	start := n.State()
	end := wire(&n, p.Body, start)
	return n.Build(p.Name, start, end)
}

// wire threads the statements from state `from`, returning the exit state.
func wire(n *fa.EpsNFA, stmts []Stmt, from int) int {
	cur := from
	for _, s := range stmts {
		switch s := s.(type) {
		case Call:
			next := n.State()
			n.Edge(cur, s.event(), next)
			cur = next
		case Skip:
		case Loop:
			head := n.State()
			n.Eps(cur, head)
			tail := wire(n, s.Body, head)
			n.Eps(tail, head)
			exit := n.State()
			n.Eps(head, exit)
			cur = exit
		case Opt:
			exit := n.State()
			tail := wire(n, s.Body, cur)
			n.Eps(tail, exit)
			n.Eps(cur, exit)
			cur = exit
		case Choice:
			exit := n.State()
			for _, alt := range s.Alts {
				tail := wire(n, alt, cur)
				n.Eps(tail, exit)
			}
			cur = exit
		default:
			panic(fmt.Sprintf("prog: unknown statement %T", s))
		}
	}
	return cur
}

const (
	// loopContinue is the probability of taking another loop iteration,
	// and of taking an opt body.
	loopContinue = 0.5
	// maxSteps caps the events of one run, a runaway guard.
	maxSteps = 10000
)

// Execute runs the program once, resolving nondeterminism with rng and
// allocating object identities starting at base. It returns the concrete
// events and the next unused identity.
func (p *Program) Execute(rng *rand.Rand, base event.ObjID) ([]event.Concrete, event.ObjID) {
	return p.execute(rng, base, loopContinue, maxSteps)
}

// execute is Execute with the loop probability and the step cap as
// parameters, so a test can drive the runaway guard.
func (p *Program) execute(rng *rand.Rand, base event.ObjID, continueProb float64, stepCap int) ([]event.Concrete, event.ObjID) {
	vars := map[string]event.ObjID{}
	next := base
	var out []event.Concrete
	var run func(stmts []Stmt) bool
	run = func(stmts []Stmt) bool {
		for _, s := range stmts {
			if len(out) >= stepCap {
				return false
			}
			switch s := s.(type) {
			case Call:
				c := event.Concrete{Op: s.Op}
				for _, u := range s.Uses {
					c.Uses = append(c.Uses, vars[u]) // unknown vars read as 0
				}
				if s.Def != "" {
					c.Def = next
					vars[s.Def] = next
					next++
				}
				out = append(out, c)
			case Skip:
			case Loop:
				for rng.Float64() < continueProb {
					if !run(s.Body) {
						return false
					}
				}
			case Opt:
				if rng.Float64() < continueProb {
					if !run(s.Body) {
						return false
					}
				}
			case Choice:
				if !run(s.Alts[rng.Intn(len(s.Alts))]) {
					return false
				}
			}
		}
		return true
	}
	run(p.Body)
	return out, next
}

// Runs executes the program n times into miner-ready runs with disjoint
// object identities.
func (p *Program) Runs(rng *rand.Rand, n int) []mine.Run {
	out := make([]mine.Run, 0, n)
	next := event.ObjID(1)
	for i := 0; i < n; i++ {
		var events []event.Concrete
		events, next = p.Execute(rng, next)
		out = append(out, mine.Run{ID: fmt.Sprintf("%s:run%d", p.Name, i), Events: events})
	}
	return out
}

// String renders the program in its source syntax.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prog %s {\n", p.Name)
	writeStmts(&b, p.Body, "  ")
	b.WriteString("}\n")
	return b.String()
}

func writeStmts(b *strings.Builder, stmts []Stmt, indent string) {
	for _, s := range stmts {
		switch s := s.(type) {
		case Call:
			b.WriteString(indent)
			if s.Def != "" {
				fmt.Fprintf(b, "%s := ", s.Def)
			}
			fmt.Fprintf(b, "%s(%s);\n", s.Op, strings.Join(s.Uses, ", "))
		case Skip:
			b.WriteString(indent + "skip;\n")
		case Loop:
			b.WriteString(indent + "loop {\n")
			writeStmts(b, s.Body, indent+"  ")
			b.WriteString(indent + "}\n")
		case Opt:
			b.WriteString(indent + "opt {\n")
			writeStmts(b, s.Body, indent+"  ")
			b.WriteString(indent + "}\n")
		case Choice:
			for i, alt := range s.Alts {
				if i == 0 {
					b.WriteString(indent + "choice {\n")
				} else {
					b.WriteString(indent + "} or {\n")
				}
				writeStmts(b, alt, indent+"  ")
			}
			b.WriteString(indent + "}\n")
		}
	}
}
