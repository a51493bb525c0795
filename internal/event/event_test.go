package event

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestStringForms(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Bind("X", "fopen"), "X = fopen()"},
		{Call("fclose", "X"), "fclose(X)"},
		{Bind("Y", "XCreateGC", "D", "W"), "Y = XCreateGC(D, W)"},
		{Call("XFlush"), "XFlush()"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.e, got, c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"X = fopen()",
		"fclose(X)",
		"Y = XCreateGC(D, W)",
		"XFlush()",
		"  X =  popen( )  ",
		"g(a, b, c)",
	} {
		e, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		again, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", e.String(), err)
		}
		if !e.Equal(again) {
			t.Errorf("round trip changed %q -> %q", s, again)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{
		"",
		"fopen",      // no argument list
		"= fopen()",  // empty binding
		"X = ()",     // no op
		"f(a,,b)",    // empty argument
		"x y = f()",  // space in binding
		"f(a b)",     // space in argument
		"f(a))",      // op contains ')' after split? malformed
		"(a)",        // missing op
		"X = fopen(", // unterminated
		"fclose(X",   // unterminated
		"#x()",       // op starts with the comment marker
		"#X = f()",   // so does the binding
		"f(#a)",      // and an argument
	} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse("not an event")
}

func TestParseAll(t *testing.T) {
	es, err := ParseAll("X = fopen()", "fclose(X)")
	if err != nil || len(es) != 2 || es[0].Op != "fopen" || es[1].Op != "fclose" {
		t.Fatalf("ParseAll = %v, %v", es, err)
	}
	if _, err := ParseAll("X = fopen()", "bogus"); err == nil {
		t.Fatal("ParseAll accepted bad event")
	}
}

func TestNamesAndMentions(t *testing.T) {
	e := MustParse("Y = draw(X, Y, Z)")
	if got := e.Names(); strings.Join(got, ",") != "X,Y,Z" {
		t.Errorf("Names = %v", got)
	}
	for _, n := range []string{"X", "Y", "Z"} {
		if !e.Mentions(n) {
			t.Errorf("Mentions(%q) = false", n)
		}
	}
	if e.Mentions("W") || e.Mentions("") {
		t.Error("Mentions matched absent name")
	}
	if got := Call("XFlush").Names(); len(got) != 0 {
		t.Errorf("Names of nullary call = %v", got)
	}
}

func TestConcrete(t *testing.T) {
	c := Concrete{Op: "XCreateGC", Def: 7, Uses: []ObjID{3, 7}}
	if got := c.String(); got != "#7 = XCreateGC(#3, #7)" {
		t.Errorf("String = %q", got)
	}
}

// Property: String/Parse is a bijection on generated events.
func TestQuickStringParse(t *testing.T) {
	names := []string{"X", "Y", "Z", "D", "W"}
	ops := []string{"fopen", "fclose", "popen", "XCreateGC", "XFreeGC"}
	err := quick.Check(func(opIdx, defIdx uint8, useIdxs []uint8) bool {
		e := Event{Op: ops[int(opIdx)%len(ops)]}
		if defIdx%2 == 0 {
			e.Def = names[int(defIdx)%len(names)]
		}
		for i, u := range useIdxs {
			if i >= 4 {
				break
			}
			e.Uses = append(e.Uses, names[int(u)%len(names)])
		}
		got, err := Parse(e.String())
		return err == nil && got.Equal(e)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// Parse allocates nothing but the use list: the names are substrings of
// its argument, and Uses is made once at its final length.
func TestParseAllocs(t *testing.T) {
	for s, max := range map[string]float64{
		"X = fopen()":            0,
		"XFlush()":               0,
		"fclose(X)":              1,
		" Y = XCreateGC( D, W )": 1,
	} {
		if n := testing.AllocsPerRun(100, func() { MustParse(s) }); n > max {
			t.Errorf("Parse(%q) took %.0f allocations, want at most %.0f", s, n, max)
		}
	}
}
