// Package repl implements the interactive command loop of the Cable tool
// (cmd/cable): concept listing, summaries, labeling, Focus sub-sessions,
// label persistence, and DOT export. It is factored out of the command so
// the full interface is unit-testable against scripted input.
package repl

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cable"
	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/scanio"
	"repro/internal/trace"
	"repro/internal/workspace"
)

// REPL drives one root session and a stack of Focus sub-sessions.
type REPL struct {
	stack []frame
	out   io.Writer
	// CreateFile is used by the dot command; tests may replace it.
	CreateFile func(name string) (io.WriteCloser, error)
}

type frame struct {
	session *cable.Session
	focus   *cable.Focus
}

// New returns a REPL over the session, writing to out.
func New(root *cable.Session, out io.Writer) *REPL {
	return &REPL{
		stack: []frame{{session: root}},
		out:   out,
		CreateFile: func(name string) (io.WriteCloser, error) {
			return os.Create(name)
		},
	}
}

// Session returns the currently active (possibly focused) session.
func (r *REPL) Session() *cable.Session { return r.stack[len(r.stack)-1].session }

// Depth returns the focus depth (1 = root).
func (r *REPL) Depth() int { return len(r.stack) }

// Run reads commands from in until EOF or quit, printing the prompt and
// a banner first.
func (r *REPL) Run(in io.Reader) {
	root := r.stack[0].session
	fmt.Fprintf(r.out, "%d trace classes, %d concepts; type \"help\"\n", root.NumTraces(), root.Lattice().Len())
	sc := scanio.NewScanner(in)
	for r.prompt(); sc.Scan(); r.prompt() {
		if !r.Exec(sc.Text()) {
			return
		}
	}
}

func (r *REPL) prompt() {
	fmt.Fprintf(r.out, "%scable> ", strings.Repeat("focus:", r.Depth()-1))
}

// Exec executes one command line; it returns false when the user quits.
func (r *REPL) Exec(line string) bool {
	obs.Count("cable.repl.commands", 1)
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return true
	}
	s := r.Session()
	switch fields[0] {
	case "help":
		fmt.Fprint(r.out, helpText)
	case "ls":
		r.list(s)
	case "tree":
		fmt.Fprint(r.out, s.Lattice().Tree(func(id int) string {
			c := s.Lattice().Concept(id)
			state, _ := s.ConceptState(id)
			return fmt.Sprintf("%s, %d class(es), similarity %d",
				state, c.Extent.Len(), c.Intent.Len())
		}))
	case "info":
		r.withConcept(s, fields, func(id int) {
			desc, err := s.DescribeConcept(id)
			if err != nil {
				fmt.Fprintln(r.out, "error:", err)
				return
			}
			fmt.Fprint(r.out, desc)
		})
	case "fa":
		r.withConcept(s, fields, func(id int) {
			sum, err := s.ShowFA(id, parseSelector(fields[2:]))
			if err != nil {
				fmt.Fprintln(r.out, "error:", err)
				return
			}
			fmt.Fprint(r.out, sum.String())
		})
	case "trans":
		r.withConcept(s, fields, func(id int) {
			shared, err := s.ShowTransitions(id, parseSelector(fields[2:]))
			if err != nil {
				fmt.Fprintln(r.out, "error:", err)
				return
			}
			for _, t := range shared {
				fmt.Fprintf(r.out, "  %s\n", t)
			}
		})
	case "traces":
		r.withConcept(s, fields, func(id int) {
			sel, err := s.Select(id, parseSelector(fields[2:]))
			if err != nil {
				fmt.Fprintln(r.out, "error:", err)
				return
			}
			labels, reps := s.Labels(), s.Representatives()
			for _, o := range sel {
				count, _ := s.Multiplicity(o)
				fmt.Fprintf(r.out, "  [%s] x%d %s\n", labelName(labels[o]), count, reps[o].Key())
			}
		})
	case "label":
		if len(fields) < 3 {
			fmt.Fprintln(r.out, "usage: label <c> <name> [sel]")
			return true
		}
		r.withConcept(s, fields, func(id int) {
			n, err := s.LabelTraces(id, parseSelector(fields[3:]), cable.Label(fields[2]))
			if err != nil {
				fmt.Fprintln(r.out, "error:", err)
				return
			}
			fmt.Fprintf(r.out, "labeled %d trace class(es) %q\n", n, fields[2])
		})
	case "focus":
		if len(fields) < 3 {
			fmt.Fprintln(r.out, "usage: focus <c> auto | unordered | project <name> | seed <event>")
			return true
		}
		r.withConcept(s, fields, func(id int) { r.focus(s, id, fields[2:]) })
	case "suggest":
		r.withConcept(s, fields, func(id int) {
			sug, err := s.SuggestFocus(id)
			if err != nil {
				fmt.Fprintln(r.out, "error:", err)
				return
			}
			fmt.Fprintf(r.out, "suggested template: %s (focus %d %s)\n", sug.Template, id, sug.Template)
		})
	case "endfocus":
		if r.Depth() == 1 {
			fmt.Fprintln(r.out, "not in a focused session")
			return true
		}
		top := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		merged, err := top.focus.End()
		if err != nil {
			fmt.Fprintln(r.out, "error:", err)
			return true
		}
		fmt.Fprintf(r.out, "merged %d label(s) back\n", merged)
	case "good":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: good <label>")
			return true
		}
		if err := trace.Write(r.out, s.TracesWith(cable.Label(fields[1]))); err != nil {
			fmt.Fprintln(r.out, "error:", err)
		}
	case "save":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: save <file>")
			return true
		}
		r.save(s, fields[1])
	case "workspace":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: workspace <file>")
			return true
		}
		w, err := r.CreateFile(fields[1])
		if err != nil {
			fmt.Fprintln(r.out, "error:", err)
			return true
		}
		err = workspace.Save(w, s)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(r.out, "error:", err)
			return true
		}
		fmt.Fprintf(r.out, "workspace written to %s\n", fields[1])
	case "load":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: load <file>")
			return true
		}
		r.load(s, fields[1])
	case "dot":
		if len(fields) != 2 {
			fmt.Fprintln(r.out, "usage: dot <file>")
			return true
		}
		w, err := r.CreateFile(fields[1])
		if err != nil {
			fmt.Fprintln(r.out, "error:", err)
			return true
		}
		err = s.Lattice().WriteDot(w, "cable")
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(r.out, "error:", err)
		}
	case "done":
		unlabeled := 0
		for _, l := range s.Labels() {
			if l == cable.Unlabeled {
				unlabeled++
			}
		}
		fmt.Fprintf(r.out, "done: %v (%d of %d classes unlabeled; labels in use: %v)\n",
			s.Done(), unlabeled, s.NumTraces(), s.UsedLabels())
	case "quit", "exit":
		return false
	default:
		fmt.Fprintf(r.out, "unknown command %q; type \"help\"\n", fields[0])
	}
	return true
}

func (r *REPL) list(s *cable.Session) {
	for _, id := range s.Lattice().TopDownOrder() {
		c := s.Lattice().Concept(id)
		state, _ := s.ConceptState(id)
		fmt.Fprintf(r.out, "  c%-3d %-22s %3d class(es), similarity %d\n",
			id, state, c.Extent.Len(), c.Intent.Len())
	}
}

func (r *REPL) focus(s *cable.Session, id int, words []string) {
	ref, err := focusFA(s, id, words)
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	fc, err := s.Focus(id, cable.SelectAll(), ref)
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	r.stack = append(r.stack, frame{session: fc.Session(), focus: fc})
	fmt.Fprintf(r.out, "focused: %d classes, %d concepts\n", fc.Session().NumTraces(), fc.Session().Lattice().Len())
}

// save writes the current labeling as "<label>\t<trace key>" lines.
func (r *REPL) save(s *cable.Session, path string) {
	w, err := r.CreateFile(path)
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	n, err := cable.WriteLabels(w, s)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	fmt.Fprintf(r.out, "saved %d label(s) to %s\n", n, path)
}

// load applies a saved labeling to matching trace classes.
func (r *REPL) load(s *cable.Session, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	applied, err := cable.ApplyLabels(s, strings.NewReader(string(data)))
	if err != nil {
		fmt.Fprintln(r.out, "error:", err)
		return
	}
	fmt.Fprintf(r.out, "applied %d label(s) from %s\n", applied, path)
}

func (r *REPL) withConcept(s *cable.Session, fields []string, f func(id int)) {
	if len(fields) < 2 {
		fmt.Fprintln(r.out, "usage:", fields[0], "<concept>")
		return
	}
	id, err := strconv.Atoi(strings.TrimPrefix(fields[1], "c"))
	if err != nil || id < 0 || id >= s.Lattice().Len() {
		fmt.Fprintf(r.out, "no concept %q (0..%d)\n", fields[1], s.Lattice().Len()-1)
		return
	}
	f(id)
}

// parseSelector parses the trailing selector words: "all", "unlabeled", or
// "with <label>"; default is all.
func parseSelector(words []string) cable.Selector {
	if len(words) == 0 {
		return cable.SelectAll()
	}
	switch words[0] {
	case "unlabeled":
		return cable.SelectUnlabeled()
	case "with":
		if len(words) > 1 {
			return cable.SelectLabel(cable.Label(words[1]))
		}
	}
	return cable.SelectAll()
}

// focusFA builds the Focus template requested on the command line
// (Section 4.1's unordered, name-projection, and seed-order templates).
func focusFA(s *cable.Session, id int, words []string) (*fa.FA, error) {
	traces, err := s.ShowTraces(id, cable.SelectAll())
	if err != nil {
		return nil, err
	}
	alphabet := trace.NewSet(traces...).Alphabet()
	switch words[0] {
	case "auto":
		sug, err := s.SuggestFocus(id)
		if err != nil {
			return nil, err
		}
		return sug.Ref, nil
	case "unordered":
		return fa.Unordered(alphabet), nil
	case "project":
		if len(words) < 2 {
			return nil, fmt.Errorf("usage: focus <c> project <name>")
		}
		return fa.NameProjection(alphabet, words[1]), nil
	case "seed":
		if len(words) < 2 {
			return nil, fmt.Errorf("usage: focus <c> seed <event>")
		}
		seed, err := event.Parse(strings.Join(words[1:], " "))
		if err != nil {
			return nil, err
		}
		return fa.SeedOrder(alphabet, seed), nil
	}
	return nil, fmt.Errorf("unknown focus template %q", words[0])
}

func labelName(l cable.Label) string {
	if l == cable.Unlabeled {
		return "-"
	}
	return string(l)
}

const helpText = `commands:
  ls | tree | info <c> | fa <c> [sel] | trans <c> [sel] | traces <c> [sel]
  label <c> <name> [sel]
  focus <c> auto | unordered | project <name> | seed <event>
  suggest <c> | endfocus | good <label> | save/load <file> | workspace <file> | dot <file>
  done | quit
sel: all | unlabeled | with <label>
`
