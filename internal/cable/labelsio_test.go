package cable

import (
	"strings"
	"testing"
)

// TestWriteLabels pins the label-file bytes the REPL's save command and
// workspace files write: one "<label>\t<trace key>" line per labeled
// class, sorted, and nothing for unlabeled classes. ApplyLabels reads
// them back.
func TestWriteLabels(t *testing.T) {
	s := newTestSession(t)
	for i, l := range []Label{Good, Good, Unlabeled, Bad, Bad, "mismatch"} {
		if l != Unlabeled {
			if err := s.LabelTrace(i, l); err != nil {
				t.Fatal(err)
			}
		}
	}
	var b strings.Builder
	n, err := WriteLabels(&b, s)
	if err != nil {
		t.Fatal(err)
	}
	want := "bad\tX = fopen(); fread(X)\n" +
		"bad\tX = popen(); fread(X)\n" +
		"good\tX = popen(); fread(X); pclose(X)\n" +
		"good\tX = popen(); pclose(X)\n" +
		"mismatch\tX = fopen(); pclose(X)\n"
	if n != 5 || b.String() != want {
		t.Fatalf("WriteLabels wrote %d lines:\n%s\nwant 5:\n%s", n, b.String(), want)
	}
	fresh := newTestSession(t)
	if applied, err := ApplyLabels(fresh, strings.NewReader(b.String())); err != nil || applied != 5 {
		t.Fatalf("ApplyLabels = %d, %v", applied, err)
	}
	for i, l := range fresh.Labels() {
		if l != s.Labels()[i] {
			t.Fatalf("class %d read back as %q, was %q", i, l, s.Labels()[i])
		}
	}
}
