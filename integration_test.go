package repro

// End-to-end tests that build the command binaries and drive them the way
// a user would: mine a specification from generated runs, verify traces
// against it, debug with the Cable REPL over a pipe, and round-trip FCA
// contexts. These tests complement the package-level unit tests by
// covering flag parsing, file I/O, and exit codes.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/concept"
	"repro/internal/event"
	"repro/internal/exp"
	"repro/internal/fa"
	"repro/internal/mine"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

var binDir string

var update = flag.Bool("update", false, "rewrite the testdata goldens (paper_all.golden, corpus.golden) from the current code")

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "repro-bin")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binDir = dir
	for _, tool := range []string{"strauss", "tsverify", "cable", "paper", "fca"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", tool, err, out)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

func tool(name string) string { return filepath.Join(binDir, name) }

// runTool executes a built binary, returning stdout+stderr and the exit code.
func runTool(t *testing.T, stdin string, name string, args ...string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	code := runToolTo(t, &buf, &buf, stdin, name, args...)
	return buf.String(), code
}

// runToolTo runs a tool like runTool, writing its stdout and stderr to the
// given writers, and returns its exit status.
func runToolTo(t *testing.T, stdout, stderr io.Writer, stdin string, name string, args ...string) int {
	t.Helper()
	cmd := exec.Command(tool(name), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	cmd.Stdout = stdout
	cmd.Stderr = stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return code
}

// writeRunsFile converts generated concrete runs into the symbolic run
// records cmd/strauss reads (object identities become names).
func writeRunsFile(t *testing.T, path string, runs []mine.Run) {
	t.Helper()
	set := &trace.Set{}
	for _, r := range runs {
		tr := trace.Trace{ID: strings.ReplaceAll(r.ID, ":", "_")}
		for _, c := range r.Events {
			name := func(id event.ObjID) string {
				if id == 0 {
					return ""
				}
				return fmt.Sprintf("o%d", int(id))
			}
			e := event.Event{Op: c.Op, Def: name(c.Def)}
			for _, u := range c.Uses {
				e.Uses = append(e.Uses, name(u))
			}
			tr.Events = append(tr.Events, e)
		}
		set.Add(tr)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, set); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndMineVerifyDebug(t *testing.T) {
	dir := t.TempDir()
	stdio := specs.Stdio()
	gen := xtrace.Generator{Model: stdio.Model, Seed: 99}
	runs, _ := gen.Runs(30, 3)
	runsPath := filepath.Join(dir, "runs.txt")
	writeRunsFile(t, runsPath, runs)

	// 1. Mine a specification and dump the scenario traces.
	scPath := filepath.Join(dir, "scenarios.txt")
	minedPath := filepath.Join(dir, "mined.fa")
	out, code := runTool(t, "", "strauss",
		"-runs", runsPath, "-seeds", "fopen,popen",
		"-scenarios", scPath, "-o", minedPath)
	if code != 0 {
		t.Fatalf("strauss failed (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "extracted") || !strings.Contains(out, "learned FA") {
		t.Errorf("strauss output:\n%s", out)
	}
	minedFile, err := os.Open(minedPath)
	if err != nil {
		t.Fatal(err)
	}
	mined, err := fa.Read(minedFile)
	minedFile.Close()
	if err != nil {
		t.Fatalf("mined FA unreadable: %v", err)
	}
	if mined.NumStates() == 0 {
		t.Fatal("empty mined FA")
	}

	// 2. Verify the scenarios against the CORRECT spec: the erroneous
	// scenarios in the training runs must be flagged.
	specPath := filepath.Join(dir, "correct.fa")
	sf, err := os.Create(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := fa.Write(sf, stdio.FA); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	violPath := filepath.Join(dir, "violations.txt")
	out, code = runTool(t, "", "tsverify",
		"-fa", specPath, "-traces", scPath, "-violations", violPath, "-q")
	if code != 1 {
		t.Fatalf("tsverify exit = %d, want 1 (violations found):\n%s", code, out)
	}
	vf, err := os.Open(violPath)
	if err != nil {
		t.Fatal(err)
	}
	violations, err := trace.Read(vf)
	vf.Close()
	if err != nil || violations.Total() == 0 {
		t.Fatalf("violations file: %v (%d traces)", err, violations.Total())
	}

	// 3. Debug with the Cable REPL over a pipe: label everything, save the
	// labeling, and export the lattice.
	labelsPath := filepath.Join(dir, "labels.tsv")
	dotPath := filepath.Join(dir, "lattice.dot")
	script := strings.Join([]string{
		"ls",
		"label 0 good all", // concept 0 exists in every lattice
		"done",
		"save " + labelsPath,
		"dot " + dotPath,
		"quit",
	}, "\n")
	out, code = runTool(t, script, "cable", "-traces", scPath, "-fa", minedPath)
	if code != 0 {
		t.Fatalf("cable failed (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "concepts") || !strings.Contains(out, "labeled") {
		t.Errorf("cable output:\n%s", out)
	}
	if data, err := os.ReadFile(dotPath); err != nil || !strings.Contains(string(data), "digraph") {
		t.Errorf("lattice.dot: %v", err)
	}
	if _, err := os.ReadFile(labelsPath); err != nil {
		t.Errorf("labels.tsv: %v", err)
	}
}

func TestEndToEndRelearn(t *testing.T) {
	dir := t.TempDir()
	// Write good-only scenarios and relearn: the result must reject the
	// crossed close.
	set := trace.NewSet(
		trace.ParseEvents("a", "X = fopen()", "fclose(X)"),
		trace.ParseEvents("b", "X = fopen()", "fread(X)", "fclose(X)"),
		trace.ParseEvents("c", "X = popen()", "pclose(X)"),
	)
	goodPath := filepath.Join(dir, "good.txt")
	f, err := os.Create(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, set); err != nil {
		t.Fatal(err)
	}
	f.Close()
	outPath := filepath.Join(dir, "relearned.fa")
	out, code := runTool(t, "", "strauss", "-relearn", goodPath, "-o", outPath)
	if code != 0 {
		t.Fatalf("strauss -relearn failed:\n%s", out)
	}
	rf, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	relearned, err := fa.Read(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if relearned.Accepts(trace.ParseEvents("", "X = popen()", "fclose(X)")) {
		t.Error("relearned spec accepts crossed close")
	}
	if !relearned.Accepts(trace.ParseEvents("", "X = fopen()", "fclose(X)")) {
		t.Error("relearned spec rejects training trace")
	}
}

// TestStraussIDlessRunsDistinct mines two identical run records that carry
// no ID: each run is named by its position, so the four extracted
// scenarios keep four distinct IDs.
func TestStraussIDlessRunsDistinct(t *testing.T) {
	dir := t.TempDir()
	record := "trace\n  f = fopen()\n  p = popen()\n  fclose(f)\n  pclose(p)\nend\n"
	runsPath := filepath.Join(dir, "runs.txt")
	if err := os.WriteFile(runsPath, []byte(record+record), 0o644); err != nil {
		t.Fatal(err)
	}
	scPath := filepath.Join(dir, "scenarios.txt")
	out, code := runTool(t, "", "strauss", "-runs", runsPath, "-seeds", "fopen,popen",
		"-scenarios", scPath, "-o", filepath.Join(dir, "mined.fa"))
	if code != 0 {
		t.Fatalf("strauss failed (%d):\n%s", code, out)
	}
	f, err := os.Open(scPath)
	if err != nil {
		t.Fatal(err)
	}
	set, err := trace.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range set.Classes() {
		for _, id := range c.IDs {
			if seen[id] {
				t.Errorf("scenario ID %q written twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 4 {
		t.Errorf("%d distinct scenario IDs, want 4: %v", len(seen), seen)
	}
}

func TestEndToEndFCA(t *testing.T) {
	dir := t.TempDir()
	cxtPath := filepath.Join(dir, "animals.cxt")
	f, err := os.Create(cxtPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := concept.WriteContext(f, exp.AnimalsContext(), "animals"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out, code := runTool(t, "", "fca", "-cxt", cxtPath)
	if code != 0 || !strings.Contains(out, "12 concepts") {
		t.Errorf("fca text output (%d):\n%s", code, out)
	}
	out, code = runTool(t, "", "fca", "-cxt", cxtPath, "-dot")
	if code != 0 || !strings.Contains(out, "digraph") {
		t.Errorf("fca dot output (%d):\n%s", code, out)
	}

	// Traces + pattern route.
	scPath := filepath.Join(dir, "sc.txt")
	sf, _ := os.Create(scPath)
	set := trace.NewSet(
		trace.ParseEvents("t1", "a()", "b()"),
		trace.ParseEvents("t2", "a()"),
	)
	if err := trace.Write(sf, set); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	out, code = runTool(t, "", "fca", "-traces", scPath, "-pattern", "(a()|b())*")
	if code != 0 || !strings.Contains(out, "2 objects") {
		t.Errorf("fca pattern output (%d):\n%s", code, out)
	}
}

func TestEndToEndPaperTool(t *testing.T) {
	out, code := runTool(t, "", "paper", "-table", "1")
	if code != 0 || !strings.Contains(out, "XtFree") {
		t.Errorf("paper -table 1 (%d):\n%s", code, out)
	}
	out, code = runTool(t, "", "paper", "-figure", "wf")
	if code != 0 || !strings.Contains(out, "well-formed: false") {
		t.Errorf("paper -figure wf (%d):\n%s", code, out)
	}
	// Unknown figure: usage error.
	_, code = runTool(t, "", "paper", "-figure", "zzz")
	if code == 0 {
		t.Error("paper accepted unknown figure")
	}
}

// TestPaperAllGolden pins the whole `paper -all` output byte for byte,
// except Table 2's build-time column, the only field that differs between
// runs. Regenerate with go test -run TestPaperAllGolden -update.
func TestPaperAllGolden(t *testing.T) {
	out, code := runTool(t, "", "paper", "-all")
	if code != 0 {
		t.Fatalf("paper -all (%d):\n%s", code, out)
	}
	got := maskBuildTimes(out)
	path := filepath.Join("testdata", "paper_all.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("paper -all differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// maskBuildTimes replaces the build time ending each Table 2 row, with
// its width-dependent padding, by a fixed marker.
func maskBuildTimes(out string) string {
	lines := strings.Split(out, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "Table 2:") {
			continue
		}
		// Skip the column header; rows run to the blank line.
		for j := i + 2; j < len(lines) && lines[j] != ""; j++ {
			k := strings.LastIndexByte(lines[j], ' ')
			lines[j] = strings.TrimRight(lines[j][:k], " ") + " <build-time>"
		}
	}
	return strings.Join(lines, "\n")
}

func TestToolUsageErrors(t *testing.T) {
	// A valid scenario file, so strauss's flag cases fail only because of
	// the flag under test.
	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	if err := os.WriteFile(good, []byte(
		"trace a\nX = fopen()\nfread(X)\nfclose(X)\nend\n"+
			"trace b\nX = fopen()\nfwrite(X)\nfclose(X)\nend\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A spec, a program model and a program source that leak the file,
	// and an empty event stream: tsverify and cable stream fail only
	// because of the flag under test.
	spec, model, src, events := filepath.Join(dir, "spec.fa"), filepath.Join(dir, "model.fa"), filepath.Join(dir, "leaky.prog"), filepath.Join(dir, "events.ndjson")
	for path, text := range map[string]string{
		spec:   "fa spec\nstates 2\nstart 0\naccept 0\nedge 0 1 X = fopen()\nedge 1 1 fread(X)\nedge 1 0 fclose(X)\nend\n",
		model:  "fa model\nstates 2\nstart 0\naccept 1\nedge 0 1 X = fopen()\nend\n",
		src:    "prog leaky {\n  X := fopen();\n  fread(X);\n}\n",
		events: "",
	} {
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		args []string
		// flag, when set, is the flag a status-2 usage message must name.
		flag string
	}{
		{"strauss", nil, ""},
		{"tsverify", nil, ""},
		{"cable", nil, ""},
		{"paper", nil, ""},
		{"fca", nil, ""},
		{"tsverify", []string{"-fa", "/nonexistent", "-traces", "/nonexistent"}, ""},
		{"cable", []string{"-traces", "/nonexistent"}, ""},
		{"paper", []string{"-table", "4"}, "-table"},
		{"paper", []string{"-table", "-1"}, "-table"},
		{"paper", []string{"-table", "3", "-optbudget", "-5"}, "-optbudget"},
		{"paper", []string{"-table", "3", "-trials", "0"}, "-trials"},
		{"paper", []string{"-table", "3", "-trials", "-1"}, "-trials"},
		{"paper", []string{"-table", "1", "-figure", "99"}, "-figure"},
		{"paper", []string{"-table", "1", "-sweep", "Nope"}, "-sweep"},
		{"paper", []string{"-table", "1", "-refablation", "Nope"}, "-refablation"},
		{"strauss", []string{"-relearn", good, "-k", "0"}, "-k"},
		{"strauss", []string{"-relearn", good, "-k", "-3"}, "-k"},
		{"strauss", []string{"-relearn", good, "-s", "0"}, "-s"},
		{"strauss", []string{"-relearn", good, "-s", "1.5"}, "-s"},
		{"strauss", []string{"-relearn", good, "-s", "NaN"}, "-s"},
		{"strauss", []string{"-relearn", good, "-core", "-2"}, "-core"},
		{"tsverify", []string{"-fa", spec, "-program", model, "-limit", "0"}, "-limit"},
		{"tsverify", []string{"-fa", spec, "-program", model, "-maxlen", "-1"}, "-maxlen"},
		{"tsverify", []string{"-fa", spec, "-progsrc", src, "-limit", "0"}, "-limit"},
		{"tsverify", []string{"-fa", spec, "-progsrc", src, "-maxlen", "-1"}, "-maxlen"},
		{"cable", []string{"stream", "-fa", spec, "-window", "-1", events}, "-window"},
	} {
		var stdout, stderr bytes.Buffer
		code := runToolTo(t, &stdout, &stderr, "", c.name, c.args...)
		if code == 0 {
			t.Errorf("%s %v succeeded, want nonzero exit", c.name, c.args)
		} else if c.flag != "" && (code != 2 || !strings.Contains(stderr.String(), c.flag)) {
			t.Errorf("%s %v: exit %d, stderr %q; want exit 2 naming %s", c.name, c.args, code, stderr.String(), c.flag)
		}
		// A rejected flag value stops the tool before it does any work.
		if c.flag != "" && stdout.Len() > 0 {
			t.Errorf("%s %v wrote %q to stdout before rejecting %s", c.name, c.args, stdout.String(), c.flag)
		}
	}
}

func TestEndToEndWorkspaceResume(t *testing.T) {
	dir := t.TempDir()
	scPath := filepath.Join(dir, "sc.txt")
	f, err := os.Create(scPath)
	if err != nil {
		t.Fatal(err)
	}
	set := trace.NewSet(
		trace.ParseEvents("a", "X = fopen()", "fclose(X)"),
		trace.ParseEvents("b", "X = fopen()"),
	)
	if err := trace.Write(f, set); err != nil {
		t.Fatal(err)
	}
	f.Close()
	wsPath := filepath.Join(dir, "session.cws")

	// Session 1: label one concept, save the workspace, quit.
	script := "label 1 good all\nworkspace " + wsPath + "\nquit\n"
	out, code := runTool(t, script, "cable", "-traces", scPath)
	if code != 0 || !strings.Contains(out, "workspace written") {
		t.Fatalf("session 1 (%d):\n%s", code, out)
	}

	// Session 2: resume, confirm the labels survived, finish.
	script = "done\nlabel 0 bad unlabeled\ndone\nquit\n"
	out, code = runTool(t, script, "cable", "-workspace", wsPath)
	if code != 0 || !strings.Contains(out, "resumed workspace") {
		t.Fatalf("session 2 (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "done: true") {
		t.Errorf("resumed session could not finish:\n%s", out)
	}
}

func TestEndToEndProgSrc(t *testing.T) {
	dir := t.TempDir()
	progPath := filepath.Join(dir, "leaky.prog")
	specPath := filepath.Join(dir, "stdio.fa")
	if err := os.WriteFile(progPath, []byte(`
prog leaky {
  X := fopen();
  loop { fread(X); }
  choice { fclose(X); } or { skip; }
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err := os.Create(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := fa.Write(sf, specs.Stdio().FA); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	out, code := runTool(t, "", "tsverify", "-fa", specPath, "-progsrc", progPath, "-maxlen", "5")
	if code != 1 {
		t.Fatalf("tsverify -progsrc exit = %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "static violation") || !strings.Contains(out, "X = fopen()") {
		t.Errorf("static output:\n%s", out)
	}
}

// TestExamplesRun builds and runs every example program, checking for the
// output markers that prove each walk-through reached its conclusion.
func TestExamplesRun(t *testing.T) {
	markers := map[string][]string{
		"quickstart":  {"fixed specification", "still accepted"},
		"minedebug":   {"relearned spec", "rejected"},
		"animals":     {"Figure 10", "digraph"},
		"focus":       {"well-formed: true", "merged"},
		"strategies":  {"Baseline (no Cable):", "Expert:"},
		"staticcheck": {"static verifier", "ranked"},
		"program":     {"static check", "debugged spec"},
	}
	for name, wants := range markers {
		name, wants := name, wants
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+name)
			var buf bytes.Buffer
			cmd.Stdout = &buf
			cmd.Stderr = &buf
			if err := cmd.Run(); err != nil {
				t.Fatalf("example %s failed: %v\n%s", name, err, buf.String())
			}
			for _, want := range wants {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("example %s output missing %q:\n%s", name, want, buf.String())
				}
			}
		})
	}
}
