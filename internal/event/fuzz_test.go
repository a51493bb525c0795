package event

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParse checks that Parse never panics, that it returns the event or
// the error the Split-based parser it replaced returns, and that
// successful parses round-trip through the canonical rendering.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"X = fopen()",
		"fclose(X)",
		"Y = XCreateGC(D, W)",
		"XFlush()",
		"*()",
		"",
		"= f()",
		"f(a,,b)",
		"f(a,)",
		"f(,a)",
		"f( a ,b , c )",
		"f(((",
		"a = b = c()",
		"  spaced   (  x , y )  ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := Parse(s)
		want, wantErr := oracleParse(s)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !e.Equal(want) {
			t.Fatalf("Parse(%q) = %q, %v; the Split-based parser %q, %v", s, e, err, want, wantErr)
		}
		if err != nil {
			return
		}
		again, err := Parse(e.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", e.String(), s, err)
		}
		if !again.Equal(e) {
			t.Fatalf("round trip changed %q -> %q", e.String(), again.String())
		}
	})
}

// oracleParse is Parse as it was before it counted the commas to make
// Uses once: it splits the arguments with strings.Split and appends each.
func oracleParse(s string) (Event, error) {
	var e Event
	rest := strings.TrimSpace(s)
	if eq := strings.Index(rest, "="); eq >= 0 {
		def := strings.TrimSpace(rest[:eq])
		if !validName(def, "(), \t\n\r") {
			return e, fmt.Errorf("event: bad result binding in %q", s)
		}
		e.Def = def
		rest = strings.TrimSpace(rest[eq+1:])
	}
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return e, fmt.Errorf("event: missing argument list in %q", s)
	}
	op := strings.TrimSpace(rest[:open])
	if !validName(op, "(), \t\n\r") {
		return e, fmt.Errorf("event: bad operation name in %q", s)
	}
	e.Op = op
	args := strings.TrimSpace(rest[open+1 : len(rest)-1])
	if args != "" {
		for _, a := range strings.Split(args, ",") {
			a = strings.TrimSpace(a)
			if !validName(a, "() \t\n\r") {
				return e, fmt.Errorf("event: bad argument in %q", s)
			}
			e.Uses = append(e.Uses, a)
		}
	}
	return e, nil
}
