package concept

import (
	"math/rand"
	"strings"
	"testing"
)

func TestContextRoundTrip(t *testing.T) {
	c := animals()
	var buf strings.Builder
	if err := WriteContext(&buf, c, "animals"); err != nil {
		t.Fatal(err)
	}
	got, name, err := ReadContext(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadContext: %v\ninput:\n%s", err, buf.String())
	}
	if name != "animals" {
		t.Errorf("name = %q", name)
	}
	assertSameContext(t, c, got)
}

func TestReadContextWithoutName(t *testing.T) {
	in := "B\n2\n2\n\nobj1\nobj2\nattr1\nattr2\nX.\n.X\n"
	c, name, err := ReadContext(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if name != "" || c.NumObjects() != 2 || !c.Has(0, 0) || c.Has(0, 1) || !c.Has(1, 1) {
		t.Errorf("parsed wrong: name=%q\n%s", name, c)
	}
}

func TestReadContextWithoutBlankLine(t *testing.T) {
	in := "B\nmyctx\n1\n1\no\na\nX\n"
	c, name, err := ReadContext(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if name != "myctx" || !c.Has(0, 0) {
		t.Error("parse without blank separator failed")
	}
}

func TestReadContextLowercaseX(t *testing.T) {
	in := "B\n1\n1\no\na\nx\n"
	c, _, err := ReadContext(strings.NewReader(in))
	if err != nil || !c.Has(0, 0) {
		t.Errorf("lowercase x: %v", err)
	}
}

func TestReadContextErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"NotB\n1\n1\no\na\nX\n",
		"B\nname\nxx\n1\no\na\nX\n", // bad counts
		"B\n1\n1\no\na\n",           // missing row
		"B\n1\n2\no\na\nb\nX\n",     // short row
		"B\n1\n1\no\na\n?\n",        // bad cell
		"B\n-1\n1\n",                // negative
	} {
		if _, _, err := ReadContext(strings.NewReader(in)); err == nil {
			t.Errorf("ReadContext(%q) succeeded, want error", in)
		}
	}
}

func TestWriteContextBadNames(t *testing.T) {
	c := NewContext([]string{"has\nnewline"}, []string{"a"})
	var buf strings.Builder
	if err := WriteContext(&buf, c, "x"); err == nil {
		t.Error("newline object name accepted")
	}
}

func TestPropContextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 80; iter++ {
		c := randomContext(rng, 10, 10)
		var buf strings.Builder
		if err := WriteContext(&buf, c, "rand"); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadContext(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		assertSameContext(t, c, got)
		// The lattice of the round-tripped context matches too.
		if !equalLattices(Build(c), Build(got)) {
			t.Fatalf("iter %d: lattice changed across round trip", iter)
		}
	}
}

func assertSameContext(t *testing.T, want, got *Context) {
	t.Helper()
	if got.NumObjects() != want.NumObjects() || got.NumAttributes() != want.NumAttributes() {
		t.Fatalf("shape changed: %dx%d -> %dx%d",
			want.NumObjects(), want.NumAttributes(), got.NumObjects(), got.NumAttributes())
	}
	for o := 0; o < want.NumObjects(); o++ {
		if got.ObjectName(o) != want.ObjectName(o) {
			t.Errorf("object %d name %q -> %q", o, want.ObjectName(o), got.ObjectName(o))
		}
		for a := 0; a < want.NumAttributes(); a++ {
			if got.Has(o, a) != want.Has(o, a) {
				t.Errorf("cell (%d,%d) changed", o, a)
			}
		}
	}
	for a := 0; a < want.NumAttributes(); a++ {
		if got.AttributeName(a) != want.AttributeName(a) {
			t.Errorf("attribute %d name changed", a)
		}
	}
}
