package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/event"
)

func tr(id string, events ...string) Trace { return ParseEvents(id, events...) }

func TestKeyAndEqual(t *testing.T) {
	a := tr("a", "X = fopen()", "fclose(X)")
	b := tr("b", "X = fopen()", "fclose(X)")
	c := tr("c", "X = fopen()")
	if a.Key() != "X = fopen(); fclose(X)" {
		t.Errorf("Key = %q", a.Key())
	}
	if a.Key() != b.Key() {
		t.Error("identical sequences with different IDs must share a key")
	}
	if a.Key() == c.Key() {
		t.Error("different sequences share a key")
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d", a.Len())
	}
}

func TestNamesOpsMentions(t *testing.T) {
	a := tr("a", "X = fopen()", "Y = dup(X)", "fclose(Y)")
	if got := strings.Join(a.Names(), ","); got != "X,Y" {
		t.Errorf("Names = %q", got)
	}
}

func TestSetDedup(t *testing.T) {
	s := NewSet(
		tr("t1", "X = fopen()", "fclose(X)"),
		tr("t2", "X = popen()", "pclose(X)"),
		tr("t3", "X = fopen()", "fclose(X)"),
	)
	if s.Total() != 3 || s.NumClasses() != 2 {
		t.Fatalf("Total=%d NumClasses=%d", s.Total(), s.NumClasses())
	}
	c := s.Class(0)
	if c.Count != 2 || c.Rep.ID != "t1" || strings.Join(c.IDs, ",") != "t1,t3" {
		t.Errorf("class 0 = %+v", c)
	}
	reps := s.Representatives()
	if len(reps) != 2 || reps[1].ID != "t2" {
		t.Errorf("Representatives = %v", reps)
	}
	if got := s.ClassOfKey(tr("zzz", "X = popen()", "pclose(X)").Key()); got != 1 {
		t.Errorf("ClassOfKey = %d", got)
	}
	if got := s.ClassOfKey(tr("zzz", "nope()").Key()); got != -1 {
		t.Errorf("ClassOfKey missing = %d", got)
	}
}

func TestSetAddAll(t *testing.T) {
	a := NewSet(tr("t1", "f()"), tr("t2", "f()"))
	b := NewSet(tr("t3", "g()"))
	b.AddAll(a)
	if b.Total() != 3 || b.NumClasses() != 2 {
		t.Fatalf("Total=%d NumClasses=%d", b.Total(), b.NumClasses())
	}
	if got := strings.Join(b.Class(1).IDs, ","); got != "t1,t2" {
		t.Errorf("merged IDs = %q", got)
	}
}

func TestAlphabet(t *testing.T) {
	s := NewSet(
		tr("t1", "X = fopen()", "fclose(X)"),
		tr("t2", "X = fopen()", "fread(X)", "fclose(X)"),
	)
	var got []string
	for _, e := range s.Alphabet() {
		got = append(got, e.String())
	}
	want := "X = fopen(); fclose(X); fread(X)"
	if strings.Join(got, "; ") != want {
		t.Errorf("Alphabet = %q, want %q", strings.Join(got, "; "), want)
	}
}

func TestEmptySetQueries(t *testing.T) {
	var s Set
	if s.Total() != 0 || s.NumClasses() != 0 || s.ClassOfKey(tr("x", "f()").Key()) != -1 {
		t.Error("zero Set misbehaves")
	}
	if len(s.Alphabet()) != 0 || len(s.Representatives()) != 0 {
		t.Error("zero Set produces phantom contents")
	}
}

func TestWriteRead(t *testing.T) {
	s := NewSet(
		tr("t1", "X = fopen()", "fclose(X)"),
		tr("t2", "X = popen()", "pclose(X)"),
		tr("t3", "X = fopen()", "fclose(X)"),
		tr("", "XFlush()"),
	)
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total() != 4 || got.NumClasses() != 3 {
		t.Fatalf("round trip Total=%d NumClasses=%d", got.Total(), got.NumClasses())
	}
	for i := range s.Classes() {
		if s.Class(i).Rep.Key() != got.Class(i).Rep.Key() {
			t.Errorf("class %d changed: %q -> %q", i, s.Class(i).Rep.Key(), got.Class(i).Rep.Key())
		}
		if strings.Join(s.Class(i).IDs, ",") != strings.Join(got.Class(i).IDs, ",") {
			t.Errorf("class %d IDs changed", i)
		}
	}
}

func TestReadComments(t *testing.T) {
	in := "# header\n\ntrace a\n  # not a comment inside? actually is skipped\n  f()\nend\n"
	s, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Total() != 1 || s.Class(0).Rep.Len() != 1 {
		t.Fatalf("got %d traces, rep %q", s.Total(), s.Class(0).Rep.Key())
	}
}

func TestReadErrors(t *testing.T) {
	for _, in := range []string{
		"f()\n",                      // event outside record
		"trace a\ntrace b\nend\n",    // nested
		"end\n",                      // stray end
		"trace a\n  bogus line\nend", // bad event
		"trace a\n  f()\n",           // unterminated
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", in)
		}
	}
}

func TestWriteTraceBadID(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, Trace{ID: "has space"}); err == nil {
		t.Fatal("WriteTrace accepted whitespace ID")
	}
}

// Property: Write then Read preserves classes, counts, and keys.
func TestQuickRoundTrip(t *testing.T) {
	ops := []string{"fopen", "fclose", "fread", "fwrite", "popen", "pclose"}
	err := quick.Check(func(spec [][]uint8) bool {
		s := &Set{}
		for i, evIdxs := range spec {
			if i >= 10 {
				break
			}
			var evs []event.Event
			for j, k := range evIdxs {
				if j >= 6 {
					break
				}
				op := ops[int(k)%len(ops)]
				if op == "fopen" || op == "popen" {
					evs = append(evs, event.Bind("X", op))
				} else {
					evs = append(evs, event.Call(op, "X"))
				}
			}
			s.Add(Trace{ID: "", Events: evs})
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Total() != s.Total() || got.NumClasses() != s.NumClasses() {
			return false
		}
		for i := range s.Classes() {
			if s.Class(i).Rep.Key() != got.Class(i).Rep.Key() || s.Class(i).Count != got.Class(i).Count {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}
