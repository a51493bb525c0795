package trace

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/scanio"
)

// FuzzTraceRoundTrip checks the Write → Read identity in depth: any set
// Read accepts must serialize and reparse to identical classes — same
// order, same IDs, same keys, same counts — not merely the same shape.
// Seeds cover empty-ID records, comment/blank interleaving, and long
// event lines (the unified scanner limit itself is exercised by
// TestReadMaxLengthEventLine; a multi-megabyte line is too large for a
// fuzz corpus entry).
func FuzzTraceRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"trace\nend\n",                    // empty-ID record
		"trace\nend\ntrace\n  f()\nend\n", // two records, both empty IDs
		"# header\n\ntrace a\n# mid\n  f()\n\nend\n# trailer\n", // comments/blanks interleaved
		"trace a\n  X = fopen()\n  fclose(X)\nend\n\n# c\n\ntrace a\n  X = fopen()\n  fclose(X)\nend\n",
		"trace " + strings.Repeat("i", 512) + "\n  " + strings.Repeat("v", 1024) + " = op()\nend\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		set, err := Read(strings.NewReader(s))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, set); err != nil {
			t.Fatalf("Write of parsed set failed: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip does not reparse: %v", err)
		}
		if again.Total() != set.Total() || again.NumClasses() != set.NumClasses() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				set.Total(), set.NumClasses(), again.Total(), again.NumClasses())
		}
		for i := 0; i < set.NumClasses(); i++ {
			a, b := set.Class(i), again.Class(i)
			if a.Rep.Key() != b.Rep.Key() {
				t.Fatalf("class %d key changed: %q -> %q", i, a.Rep.Key(), b.Rep.Key())
			}
			if a.Count != b.Count {
				t.Fatalf("class %d count changed: %d -> %d", i, a.Count, b.Count)
			}
			if strings.Join(a.IDs, "\x00") != strings.Join(b.IDs, "\x00") {
				t.Fatalf("class %d IDs changed: %q -> %q", i, a.IDs, b.IDs)
			}
		}
	})
}

// FuzzRead checks that the trace-file reader never panics and that
// anything it accepts survives a write/read round trip.
func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		"trace a\n  f()\nend\n",
		"trace\nend\n",
		"# comment\n\ntrace x\n  X = fopen()\n  fclose(X)\nend\n",
		"trace a\ntrace b\nend\n",
		"end\n",
		"garbage\n",
		"trace a\n  not an event\nend\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		set, err := Read(strings.NewReader(s))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, set); err != nil {
			// IDs with whitespace cannot be produced by Read (IDs are
			// single fields), so Write must succeed.
			t.Fatalf("Write of parsed set failed: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip does not reparse: %v", err)
		}
		if again.Total() != set.Total() || again.NumClasses() != set.NumClasses() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				set.Total(), set.NumClasses(), again.Total(), again.NumClasses())
		}
	})
}

// FuzzReadMatchesOracle checks Read, which interns event lines, renders
// each record's key into a slab and finds its class through a table over
// that slab, and cuts keys, IDs and events from per-read slabs, against
// the line-by-line oracle reader: the same error, at the same line, or the
// same classes — same order, keys, counts, IDs and events. Whatever both
// accept must also write the oracle writer's bytes.
func FuzzReadMatchesOracle(f *testing.F) {
	for _, seed := range []string{
		"trace a\n  X = fopen()\n  fclose(X)\nend\ntrace b\n  X = fopen()\n  fclose(X)\nend\n",
		"trace\nend\ntrace\n  f()\nend\ntrace c\nend\n",
		"# c\n\ntrace a\n  f( x ,y )\n  f(x, y)\nend\ntrace b\n  f(x, y)\n  f( x ,y )\nend\n",
		"trace a\n  trace = open()\n  use(trace)\nend\n",
		"trace =\nend\ntrace = open()\n",
		"trace a\n  #x()\nend\n",
		"trace a b\nend\n",
		"trace a\ntrace b\nend\n",
		"trace a\n  trace  =  open()\n  trace\u00a0= f()\nend\n",
		"trace\u00a0a\nend\n",
		"trace a\u00a0b\n  f()\nend\n",
		"trace a\u2028b\n  f()\nend\n",
		"trace\u00a0a\n  f()\nend\n",
		"trace a\n  X\u00a0= f( \u0085y)\nend\n",
		"end\n",
		"  f()\n",
		"trace a\n  f()\n",
		"trace a\n  not an event\nend\n",
		// Duplicate-heavy: most records repeat a class, so the key slab
		// is truncated again and most IDs go to the second ID slab.
		strings.Repeat("trace d\n  X = open()\n  use(X)\nend\n", 20) +
			"trace e\n  use(X)\nend\n" + strings.Repeat("trace f\n  use(X)\nend\n", 5),
		// Records that repeat an ID, in one class and across classes.
		"trace a\n  f()\nend\ntrace a\n  g()\nend\ntrace a\n  f()\nend\ntrace\nend\ntrace\nend\n",
		// IDs and a key longer than the first slabs hold.
		strings.Repeat("trace "+strings.Repeat("i", 100)+"\n  "+strings.Repeat("v", 300)+" = op(x)\nend\n", 3),
		manyClassesText(40),
		longRecordText(60),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := Read(strings.NewReader(s))
		want, wantErr := oracleRead(strings.NewReader(s))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Read error %v, oracle error %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("Read error %q, oracle error %q", err, wantErr)
			}
			var le, wantLE *scanio.Error
			if errors.As(err, &le) != errors.As(wantErr, &wantLE) || le != nil && le.Line != wantLE.Line {
				t.Fatalf("Read error %#v, oracle error %#v", err, wantErr)
			}
			return
		}
		requireSameClasses(t, got, want)
		var buf, wantBuf bytes.Buffer
		if err := Write(&buf, got); err != nil {
			t.Fatal(err)
		}
		if err := oracleWrite(&wantBuf, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), wantBuf.Bytes()) {
			t.Fatalf("Write emitted %q, the oracle writer %q", buf.Bytes(), wantBuf.Bytes())
		}
	})
}

// manyClassesText renders n classes, more than Read's class table holds
// before it grows, and then every third of them again, so that classes
// are found again after the table has grown.
func manyClassesText(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "trace c%d\n  X = f%d()\n  g(X)\nend\n", i, i)
	}
	for i := 0; i < n; i += 3 {
		fmt.Fprintf(&b, "trace r%d\n  X = f%d()\n  g(X)\nend\n", i, i)
	}
	return b.String()
}

// longRecordText renders a record of n distinct events, more than Read's
// pending table holds before it grows, twice, and then a short record.
func longRecordText(n int) string {
	var b strings.Builder
	for r := 0; r < 2; r++ {
		fmt.Fprintf(&b, "trace long%d\n", r)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "  e%d(x)\n", i)
		}
		b.WriteString("end\n")
	}
	b.WriteString("trace short\n  e1(x)\nend\n")
	return b.String()
}

// requireSameClasses fails unless got and want hold the same classes in
// the same order, and got's stored class keys are the rendered keys.
func requireSameClasses(t *testing.T, got, want *Set) {
	t.Helper()
	if got.Total() != want.Total() || got.NumClasses() != want.NumClasses() {
		t.Fatalf("%d traces in %d classes, want %d in %d",
			got.Total(), got.NumClasses(), want.Total(), want.NumClasses())
	}
	for i := 0; i < want.NumClasses(); i++ {
		g, w := got.Class(i), want.Class(i)
		if g.Rep.Key() != w.Rep.Key() || got.ClassKey(i) != w.Rep.Key() {
			t.Fatalf("class %d: key %q (stored %q), want %q", i, g.Rep.Key(), got.ClassKey(i), w.Rep.Key())
		}
		if g.Rep.ID != w.Rep.ID || g.Count != w.Count ||
			strings.Join(g.IDs, "\x00") != strings.Join(w.IDs, "\x00") {
			t.Fatalf("class %d = %+v, want %+v", i, g, w)
		}
	}
}

// FuzzEventRoundTrip checks that every event event.Parse accepts survives
// Write then Read as the only event of a trace. Event lines must never be
// mistaken for comments or record headers.
func FuzzEventRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"X = fopen()",
		"fclose(X)",
		"*()",
		"trace = open()",
		"trace()",
		"X = trace(trace)",
		"end = f()",
		"end()",
		"#x()",
		"X = #y()",
		"  spaced   (  x , y )  ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := event.Parse(s)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, NewSet(New("t", e))); err != nil {
			t.Fatalf("Write of %q: %v", e, err)
		}
		text := buf.String()
		set, err := Read(&buf)
		if err != nil {
			t.Fatalf("event %q does not read back from %q: %v", e, text, err)
		}
		if set.Total() != 1 || len(set.Class(0).Rep.Events) != 1 || !set.Class(0).Rep.Events[0].Equal(e) {
			t.Fatalf("event %q read back from %q as %q", e, text, set.Class(0).Rep.Key())
		}
	})
}
