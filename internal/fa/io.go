package fa

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/scanio"
)

// The text format for automaton files:
//
//	fa <name>
//	states <n>
//	start <s> [<s>...]
//	accept [<s>...]
//	edge <from> <to> <event>
//	...
//	end
//
// Blank lines and lines beginning with # are ignored. The wildcard label is
// written "*()". A record has one states line, declaring at most 65,536
// states.

// Write serializes the automaton. It renders the whole record into one
// buffer and writes it with one Write call; given a *bufio.Writer, it
// renders straight into the writer's free buffer space.
func Write(w io.Writer, f *FA) error {
	var buf []byte
	if bw, ok := w.(*bufio.Writer); ok {
		buf = bw.AvailableBuffer()
	} else {
		buf = make([]byte, 0, 64+len(f.name)+32*len(f.trans))
	}
	buf, err := AppendText(buf, f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// AppendText appends the automaton's record in the text format to dst and
// returns the extended slice: the bytes Write writes. A name containing a
// newline would not read back, so it is an error, and dst comes back
// unextended.
func AppendText(dst []byte, f *FA) ([]byte, error) {
	if strings.ContainsAny(f.name, "\n") {
		return dst, fmt.Errorf("fa: name %q contains newline", f.name)
	}
	dst = append(dst, "fa "...)
	dst = append(dst, f.name...)
	dst = append(dst, "\nstates "...)
	dst = strconv.AppendInt(dst, int64(f.numStates), 10)
	dst = append(dst, "\nstart"...)
	dst = appendStates(dst, f.start)
	dst = append(dst, "\naccept"...)
	dst = appendStates(dst, f.accept)
	dst = append(dst, '\n')
	for _, t := range f.trans {
		dst = append(dst, "edge "...)
		dst = strconv.AppendInt(dst, int64(t.From), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(t.To), 10)
		dst = append(dst, ' ')
		dst = t.Label.AppendString(dst)
		dst = append(dst, '\n')
	}
	return append(dst, "end\n"...), nil
}

// appendStates appends " <state>" for each member of states, ascending.
func appendStates(buf []byte, states *bitset.Set) []byte {
	states.Range(func(s int) bool {
		buf = strconv.AppendInt(append(buf, ' '), int64(s), 10)
		return true
	})
	return buf
}

// Read parses one automaton from r.
func Read(r io.Reader) (*FA, error) {
	sc := scanio.NewScanner(r)
	var (
		b          *Builder
		haveStates bool
		haveEnd    bool
		lineno     int
	)
	parseStates := func(fields []string) ([]State, error) {
		out := make([]State, 0, len(fields))
		for _, fstr := range fields {
			n, err := strconv.Atoi(fstr)
			if err != nil {
				return nil, err
			}
			out = append(out, State(n))
		}
		return out, nil
	}
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if haveEnd {
			return nil, scanio.LineError("fa", lineno, fmt.Errorf("content after end"))
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "fa":
			if b != nil {
				return nil, scanio.LineError("fa", lineno, fmt.Errorf("nested fa record"))
			}
			name := ""
			if len(fields) > 1 {
				name = strings.TrimSpace(strings.TrimPrefix(line, "fa"))
			}
			b = NewBuilder(name)
		case "states":
			if b == nil || len(fields) != 2 {
				return nil, scanio.LineError("fa", lineno, fmt.Errorf("bad states line"))
			}
			if haveStates {
				return nil, scanio.LineError("fa", lineno, fmt.Errorf("duplicate states line"))
			}
			// maxStates bounds the declared count before States
			// allocates: automata arrive as client text (cabled), and the
			// largest one the pipeline builds has 11 states.
			const maxStates = 1 << 16
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 || n > maxStates {
				return nil, scanio.LineError("fa", lineno, fmt.Errorf("bad state count %q (at most %d)", fields[1], maxStates))
			}
			haveStates = true
			b.States(n)
		case "start":
			if b == nil {
				return nil, scanio.LineError("fa", lineno, fmt.Errorf("start outside record"))
			}
			ss, err := parseStates(fields[1:])
			if err != nil {
				return nil, scanio.LineError("fa", lineno, err)
			}
			b.Start(ss...)
		case "accept":
			if b == nil {
				return nil, scanio.LineError("fa", lineno, fmt.Errorf("accept outside record"))
			}
			ss, err := parseStates(fields[1:])
			if err != nil {
				return nil, scanio.LineError("fa", lineno, err)
			}
			b.Accept(ss...)
		case "edge":
			if b == nil || len(fields) < 4 {
				return nil, scanio.LineError("fa", lineno, fmt.Errorf("bad edge line"))
			}
			rest := strings.TrimSpace(strings.TrimPrefix(line, "edge"))
			fromTok, rest := nextToken(rest)
			toTok, labelText := nextToken(rest)
			from, err1 := strconv.Atoi(fromTok)
			to, err2 := strconv.Atoi(toTok)
			if err1 != nil || err2 != nil {
				return nil, scanio.LineError("fa", lineno, fmt.Errorf("bad edge endpoints"))
			}
			label, err := event.Parse(labelText)
			if err != nil {
				return nil, scanio.LineError("fa", lineno, err)
			}
			b.Edge(State(from), label, State(to))
		case "end":
			if b == nil {
				return nil, scanio.LineError("fa", lineno, fmt.Errorf("end outside record"))
			}
			haveEnd = true
		default:
			return nil, scanio.LineError("fa", lineno, fmt.Errorf("unknown directive %q", fields[0]))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, scanio.LineError("fa", lineno+1, err)
	}
	if b == nil {
		return nil, fmt.Errorf("fa: no automaton in input") //cablevet:ignore errwrapline whole-input error, no line to blame
	}
	if !haveEnd {
		return nil, fmt.Errorf("fa: missing end") //cablevet:ignore errwrapline whole-input error, no line to blame
	}
	return b.Build()
}

// nextToken splits off the first whitespace-delimited token and returns it
// with the trimmed remainder.
func nextToken(s string) (tok, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i:])
}
