package prog

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mine"
)

// randomProgram generates a structurally random single-variable program:
// an open call, random body over use ops, and a close in some branch.
func randomProgram(rng *rand.Rand) *Program {
	ops := []string{"use", "read", "write"}
	var gen func(depth int) []Stmt
	gen = func(depth int) []Stmt {
		n := 1 + rng.Intn(3)
		var out []Stmt
		for i := 0; i < n; i++ {
			switch k := rng.Intn(6); {
			case k == 0 && depth < 3:
				out = append(out, Loop{Body: gen(depth + 1)})
			case k == 1 && depth < 3:
				out = append(out, Opt{Body: gen(depth + 1)})
			case k == 2 && depth < 3:
				out = append(out, Choice{Alts: [][]Stmt{gen(depth + 1), gen(depth + 1)}})
			case k == 3:
				out = append(out, Skip{})
			default:
				out = append(out, Call{Op: ops[rng.Intn(len(ops))], Uses: []string{"V"}})
			}
		}
		return out
	}
	body := []Stmt{Call{Def: "V", Op: "open"}}
	body = append(body, gen(0)...)
	body = append(body, Opt{Body: []Stmt{Call{Op: "close", Uses: []string{"V"}}}})
	return &Program{Name: "rand", Body: body}
}

// Property: print/parse round-trips random programs.
func TestQuickPrintParse(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		p := randomProgram(rand.New(rand.NewSource(seed)))
		again, err := Parse(p.String())
		if err != nil {
			return false
		}
		return again.String() == p.String()
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: every concrete execution's per-object scenario is accepted by
// the compiled projection — the static and dynamic views of a program
// agree.
func TestQuickExecuteWithinCompiledLanguage(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		proj, err := p.Project("V").Compile()
		if err != nil {
			return false
		}
		fe := mine.FrontEnd{Seeds: []string{"open"}, FollowDerived: true}
		for i := 0; i < 5; i++ {
			events, _ := p.Execute(rng, 1)
			for _, sc := range fe.ExtractAll([]mine.Run{{ID: "r", Events: events}}).Representatives() {
				if !proj.Accepts(sc) {
					fmt.Printf("program:\n%s\nscenario: %s\n", p, sc.Key())
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: compiled behaviours of bounded length are executable — for
// every enumerated word there exists some random execution realizing it
// is hard to check directly, so check the weaker containment both ways on
// the projection for leak-free programs: the compiled language's bounded
// enumeration is nonempty whenever execution produces events.
func TestQuickCompiledLanguageNonEmpty(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		f, err := p.Compile()
		if err != nil {
			return false
		}
		events, _ := p.Execute(rng, 1)
		words := f.Enumerate(40, 10)
		return len(events) == 0 || len(words) > 0
	}, &quick.Config{MaxCount: 80})
	if err != nil {
		t.Fatal(err)
	}
}
