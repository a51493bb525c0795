package workspace

import (
	"strings"
	"testing"

	"repro/internal/cable"
	"repro/internal/fa"
	"repro/internal/trace"
)

func session(t *testing.T) *cable.Session {
	t.Helper()
	set := trace.NewSet(
		trace.ParseEvents("v0", "X = popen()", "pclose(X)"),
		trace.ParseEvents("v1", "X = popen()", "fread(X)", "pclose(X)"),
		trace.ParseEvents("v2", "X = fopen()", "fread(X)"),
		trace.ParseEvents("v3", "X = popen()", "pclose(X)"), // duplicate of v0
	)
	s, err := cable.NewSession(set, fa.FromTraces(set.Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := session(t)
	s.LabelTrace(0, cable.Good)
	s.LabelTrace(2, cable.Bad)

	var buf strings.Builder
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Load: %v\n%s", err, buf.String())
	}
	if got.NumTraces() != s.NumTraces() {
		t.Fatalf("classes %d -> %d", s.NumTraces(), got.NumTraces())
	}
	for i := 0; i < s.NumTraces(); i++ {
		if got.Representatives()[i].Key() != s.Representatives()[i].Key() {
			t.Errorf("trace %d changed", i)
		}
		if got.Labels()[i] != s.Labels()[i] {
			t.Errorf("label %d: %q -> %q", i, s.Labels()[i], got.Labels()[i])
		}
		if must(got.Multiplicity(i)) != must(s.Multiplicity(i)) {
			t.Errorf("multiplicity %d changed", i)
		}
	}
	// The lattice is rebuilt identically (same reference FA).
	if got.Lattice().Len() != s.Lattice().Len() {
		t.Errorf("lattice size %d -> %d", s.Lattice().Len(), got.Lattice().Len())
	}
	// Resume labeling where we left off.
	got.LabelTraces(got.Lattice().Top(), cable.SelectUnlabeled(), cable.Good)
	if !got.Done() {
		t.Error("resumed session cannot finish labeling")
	}
}

func TestRoundTripUnlabeled(t *testing.T) {
	s := session(t)
	var buf strings.Builder
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Done() {
		t.Error("fresh session loaded as done")
	}
}

func TestLoadErrors(t *testing.T) {
	for name, in := range map[string]string{
		"empty":        "",
		"bad header":   "nope\n",
		"no sections":  "cable-workspace v1\n",
		"stray text":   "cable-workspace v1\njunk\n=== fa ===\n",
		"bad fa":       "cable-workspace v1\n=== fa ===\nbroken\n=== traces ===\n=== labels ===\n=== end ===\n",
		"bad traces":   "cable-workspace v1\n=== fa ===\nfa x\nstates 1\nstart 0\naccept 0\nend\n=== traces ===\nbroken\n=== labels ===\n=== end ===\n",
		"bad labels":   "cable-workspace v1\n=== fa ===\nfa x\nstates 1\nstart 0\naccept 0\nend\n=== traces ===\ntrace a\nend\n=== labels ===\nmalformed\n=== end ===\n",
		"missing some": "cable-workspace v1\n=== fa ===\nfa x\nstates 1\nstart 0\naccept 0\nend\n=== end ===\n",
	} {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Load succeeded, want error", name)
		}
	}
}

func TestLoadRejectsTracesOutsideRef(t *testing.T) {
	// A workspace whose FA does not accept its traces cannot build a
	// session; Load must surface the error.
	in := "cable-workspace v1\n" +
		"=== fa ===\nfa tiny\nstates 1\nstart 0\naccept 0\nedge 0 0 a()\nend\n" +
		"=== traces ===\ntrace t\n  z()\nend\n" +
		"=== labels ===\n" +
		"=== end ===\n"
	if _, err := Load(strings.NewReader(in)); err == nil {
		t.Error("Load accepted workspace with unrecognized traces")
	}
}

// must unwraps a (value, error) pair, panicking on error; these tests only
// use IDs the checked accessors accept.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
