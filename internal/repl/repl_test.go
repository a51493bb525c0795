package repl

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cable"
	"repro/internal/fa"
	"repro/internal/trace"
)

func newSession(t *testing.T) *cable.Session {
	t.Helper()
	set := trace.NewSet(
		trace.ParseEvents("v0", "X = popen()", "pclose(X)"),
		trace.ParseEvents("v1", "X = popen()", "fread(X)", "pclose(X)"),
		trace.ParseEvents("v2", "X = popen()", "fread(X)"),
		trace.ParseEvents("v3", "X = fopen()", "fread(X)"),
	)
	s, err := cable.NewSession(set, fa.FromTraces(set.Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// run feeds a script to a fresh REPL and returns the output.
func run(t *testing.T, s *cable.Session, script ...string) (string, *REPL) {
	t.Helper()
	var out bytes.Buffer
	r := New(s, &out)
	r.Run(strings.NewReader(strings.Join(script, "\n")))
	return out.String(), r
}

func TestBannerAndHelp(t *testing.T) {
	out, _ := run(t, newSession(t), "help", "quit")
	for _, want := range []string{"4 trace classes", "commands:", "focus <c>"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLsInfoTransTraces(t *testing.T) {
	out, _ := run(t, newSession(t),
		"ls",
		"info 0",
		"trans 0",
		"traces 0",
	)
	for _, want := range []string{"Unlabeled(green)", "concept c0", "similarity"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelAndDone(t *testing.T) {
	s := newSession(t)
	top := s.Lattice().Top()
	out, _ := run(t, s,
		"label "+itoa(top)+" good all",
		"done",
	)
	if !strings.Contains(out, "labeled 4 trace class(es) \"good\"") {
		t.Errorf("labeling output wrong:\n%s", out)
	}
	if !strings.Contains(out, "done: true") {
		t.Errorf("done output wrong:\n%s", out)
	}
	if !s.Done() {
		t.Error("session not actually labeled")
	}
}

func TestLabelSelectors(t *testing.T) {
	s := newSession(t)
	top := s.Lattice().Top()
	run(t, s,
		"label "+itoa(top)+" good all",
		"label "+itoa(top)+" bad with good", // flip all
	)
	for i := 0; i < s.NumTraces(); i++ {
		if s.Labels()[i] != cable.Bad {
			t.Fatalf("trace %d label = %q", i, s.Labels()[i])
		}
	}
}

func TestShowFACommand(t *testing.T) {
	s := newSession(t)
	top := s.Lattice().Top()
	out, _ := run(t, s, "fa "+itoa(top))
	if !strings.Contains(out, "states") || !strings.Contains(out, "popen") {
		t.Errorf("fa output wrong:\n%s", out)
	}
}

func TestGoodCommand(t *testing.T) {
	s := newSession(t)
	top := s.Lattice().Top()
	out, _ := run(t, s,
		"label "+itoa(top)+" good all",
		"good good",
	)
	if !strings.Contains(out, "trace v0") || !strings.Contains(out, "end") {
		t.Errorf("good output not a trace file:\n%s", out)
	}
}

func TestFocusAndEndfocus(t *testing.T) {
	s := newSession(t)
	top := s.Lattice().Top()
	var out bytes.Buffer
	r := New(s, &out)
	if !r.Exec("focus " + itoa(top) + " unordered") {
		t.Fatal("focus quit")
	}
	if r.Depth() != 2 {
		t.Fatalf("depth = %d after focus", r.Depth())
	}
	sub := r.Session()
	r.Exec("label " + itoa(sub.Lattice().Top()) + " good all")
	r.Exec("endfocus")
	if r.Depth() != 1 {
		t.Fatalf("depth = %d after endfocus", r.Depth())
	}
	if !s.Done() {
		t.Error("labels not merged back")
	}
	if !strings.Contains(out.String(), "merged 4 label(s) back") {
		t.Errorf("merge output wrong:\n%s", out.String())
	}
}

func TestFocusTemplates(t *testing.T) {
	s := newSession(t)
	top := s.Lattice().Top()
	for _, cmdline := range []string{
		"focus " + itoa(top) + " project X",
		"focus " + itoa(top) + " seed pclose(X)",
	} {
		var out bytes.Buffer
		r := New(s, &out)
		r.Exec(cmdline)
		if strings.Contains(cmdline, "seed") {
			// Seed-order requires the seed to occur: traces without pclose
			// are rejected by the template, so the focus errors cleanly.
			if !strings.Contains(out.String(), "focused") && !strings.Contains(out.String(), "error") {
				t.Errorf("%s: no result:\n%s", cmdline, out.String())
			}
			continue
		}
		if r.Depth() != 2 {
			t.Errorf("%s: depth = %d\n%s", cmdline, r.Depth(), out.String())
		}
	}
}

func TestEndfocusAtRoot(t *testing.T) {
	out, _ := run(t, newSession(t), "endfocus")
	if !strings.Contains(out, "not in a focused session") {
		t.Errorf("output:\n%s", out)
	}
}

func TestSaveAndLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.tsv")
	s := newSession(t)
	top := s.Lattice().Top()
	run(t, s,
		"label "+itoa(top)+" good all",
		"save "+path,
	)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "good\tX = popen(); pclose(X)") {
		t.Errorf("saved file:\n%s", data)
	}

	fresh := newSession(t)
	out, _ := run(t, fresh, "load "+path, "done")
	if !strings.Contains(out, "applied 4 label(s)") || !fresh.Done() {
		t.Errorf("load failed:\n%s", out)
	}
}

func TestApplyLabelsPartialAndErrors(t *testing.T) {
	s := newSession(t)
	n, err := cable.ApplyLabels(s, strings.NewReader(
		"# comment\n\nbad\tX = popen(); fread(X)\nbad\tno such trace\n"))
	if err != nil || n != 1 {
		t.Fatalf("ApplyLabels = %d, %v", n, err)
	}
	if _, err := cable.ApplyLabels(s, strings.NewReader("malformed line\n")); err == nil {
		t.Error("malformed labels file accepted")
	}
}

func TestDotCommand(t *testing.T) {
	s := newSession(t)
	var dot bytes.Buffer
	var out bytes.Buffer
	r := New(s, &out)
	r.CreateFile = func(string) (io.WriteCloser, error) { return nopCloser{&dot}, nil }
	r.Exec("dot lattice.dot")
	if !strings.Contains(dot.String(), "digraph") {
		t.Errorf("dot output:\n%s", dot.String())
	}
}

func TestBadCommands(t *testing.T) {
	out, _ := run(t, newSession(t),
		"frobnicate",
		"info 999",
		"info",
		"label 0",
		"focus 0 bogus",
		"good",
	)
	for _, want := range []string{"unknown command", "no concept", "usage:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func itoa(n int) string { return strconv.Itoa(n) }

func TestSuggestAndAutoFocus(t *testing.T) {
	// Order-sensitive traces sharing event supports: suggest recommends a
	// seed template, and "focus <c> auto" uses it directly.
	set := trace.NewSet(
		trace.ParseEvents("g1", "X = XCreateGC()", "XSetFont(X)", "XDrawString(X)", "XFreeGC(X)"),
		trace.ParseEvents("b1", "X = XCreateGC()", "XDrawString(X)", "XSetFont(X)", "XFreeGC(X)"),
	)
	s, err := cable.NewSession(set, fa.FromTraces(set.Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	s.LabelTrace(0, cable.Good)
	s.LabelTrace(1, cable.Bad)
	top := s.Lattice().Top()
	var out bytes.Buffer
	r := New(s, &out)
	r.Exec("suggest " + itoa(top))
	if !strings.Contains(out.String(), "suggested template: seed") {
		t.Errorf("suggest output:\n%s", out.String())
	}
	r.Exec("focus " + itoa(top) + " auto")
	if r.Depth() != 2 {
		t.Fatalf("auto focus did not enter a sub-session:\n%s", out.String())
	}
	// Unlabeled mixed concept: suggest reports the error.
	out.Reset()
	fresh := New(newSession(t), &out)
	fresh.Exec("suggest 0")
	if !strings.Contains(out.String(), "error") {
		t.Errorf("suggest on unmixed concept:\n%s", out.String())
	}
}

func TestTreeCommand(t *testing.T) {
	out, _ := run(t, newSession(t), "tree")
	if !strings.Contains(out, "└─") || !strings.Contains(out, "Unlabeled(green)") {
		t.Errorf("tree output:\n%s", out)
	}
}

func TestWorkspaceCommand(t *testing.T) {
	s := newSession(t)
	s.LabelTrace(0, cable.Good)
	var ws bytes.Buffer
	var out bytes.Buffer
	r := New(s, &out)
	r.CreateFile = func(string) (io.WriteCloser, error) { return nopCloser{&ws}, nil }
	r.Exec("workspace session.cws")
	if !strings.Contains(out.String(), "workspace written") {
		t.Fatalf("output:\n%s", out.String())
	}
	if !strings.Contains(ws.String(), "cable-workspace v1") ||
		!strings.Contains(ws.String(), "=== labels ===") {
		t.Errorf("workspace content:\n%s", ws.String())
	}
	out.Reset()
	r.Exec("workspace")
	if !strings.Contains(out.String(), "usage") {
		t.Error("missing usage for bare workspace command")
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
