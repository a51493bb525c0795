package prog

import (
	"fmt"
	"strings"
	"unicode"
)

// Parse reads a program in the package syntax. Comments run from "//" to
// end of line.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("prog: trailing input at %s", p.peek())
	}
	return prog, nil
}

// --- Lexer -------------------------------------------------------------------

type token struct {
	kind string // "ident", "(", ")", "{", "}", ";", ",", ":="
	text string
	line int
}

func (t token) String() string {
	if t.kind == "ident" {
		return fmt.Sprintf("%q (line %d)", t.text, t.line)
	}
	return fmt.Sprintf("%q (line %d)", t.kind, t.line)
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ':' && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, token{kind: ":=", line: line})
			i += 2
		case strings.ContainsRune("(){};,", rune(c)):
			toks = append(toks, token{kind: string(c), line: line})
			i++
		case isIdentRune(rune(c)):
			j := i
			for j < len(src) && isIdentRune(rune(src[j])) {
				j++
			}
			toks = append(toks, token{kind: "ident", text: src[i:j], line: line})
			i = j
		default:
			return nil, fmt.Errorf("prog: line %d: unexpected character %q", line, c)
		}
	}
	return toks, nil
}

func isIdentRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// --- Parser ------------------------------------------------------------------

type parser struct {
	toks []token
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() token {
	if p.eof() {
		return token{kind: "eof", line: -1}
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(kind string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("prog: expected %q, found %s", kind, t)
	}
	return t, nil
}

func (p *parser) expectKeyword(word string) error {
	t := p.next()
	if t.kind != "ident" || t.text != word {
		return fmt.Errorf("prog: expected %q, found %s", word, t)
	}
	return nil
}

func (p *parser) program() (*Program, error) {
	if err := p.expectKeyword("prog"); err != nil {
		return nil, err
	}
	name, err := p.expect("ident")
	if err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &Program{Name: name.text, Body: body}, nil
}

func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for p.peek().kind != "}" {
		if p.eof() {
			return nil, fmt.Errorf("prog: unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.next() // consume }
	return stmts, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.peek()
	if t.kind != "ident" {
		return nil, fmt.Errorf("prog: expected statement, found %s", t)
	}
	switch t.text {
	case "skip":
		p.next()
		_, err := p.expect(";")
		return Skip{}, err
	case "loop":
		p.next()
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return Loop{Body: body}, nil
	case "opt":
		p.next()
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return Opt{Body: body}, nil
	case "choice":
		p.next()
		var alts [][]Stmt
		first, err := p.block()
		if err != nil {
			return nil, err
		}
		alts = append(alts, first)
		for p.peek().kind == "ident" && p.peek().text == "or" {
			p.next()
			alt, err := p.block()
			if err != nil {
				return nil, err
			}
			alts = append(alts, alt)
		}
		if len(alts) < 2 {
			return nil, fmt.Errorf("prog: choice needs at least one \"or\" alternative (line %d)", t.line)
		}
		return Choice{Alts: alts}, nil
	}
	return p.call()
}

// call parses "x := op(a, b);" or "op(a);".
func (p *parser) call() (Stmt, error) {
	first, err := p.expect("ident")
	if err != nil {
		return nil, err
	}
	c := Call{Op: first.text}
	if p.peek().kind == ":=" {
		p.next()
		op, err := p.expect("ident")
		if err != nil {
			return nil, err
		}
		c.Def = first.text
		c.Op = op.text
	}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	for p.peek().kind != ")" {
		arg, err := p.expect("ident")
		if err != nil {
			return nil, err
		}
		c.Uses = append(c.Uses, arg.text)
		if p.peek().kind == "," {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return c, nil
}
