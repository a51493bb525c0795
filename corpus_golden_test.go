package repro

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/concept"
	"repro/internal/exp"
	"repro/internal/fa"
	"repro/internal/specs"
)

// TestCorpusGolden pins the bytes of every shipped corpus artifact: for
// each specification of specs.All() plus specs.Stdio(), the SHA-256 of
// fa.Write for its correct FA, its seeded Buggy FA and its program model
// (specs.ProgramFA), and of concept.WriteSnapshot for its Table 2 lattice.
// Transition IDs are lattice attributes, so a change in state or edge
// numbering shows here even when every table keeps its shape. Regenerate
// with go test -run TestCorpusGolden -update.
func TestCorpusGolden(t *testing.T) {
	var lines []string
	rendered := map[string]string{}
	add := func(spec, artifact string, data []byte) {
		key := spec + " " + artifact
		rendered[key] = string(data)
		lines = append(lines, fmt.Sprintf("%s %x", key, sha256.Sum256(data)))
	}
	writeFA := func(f *fa.FA) []byte {
		var buf bytes.Buffer
		if err := fa.Write(&buf, f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, sp := range append(specs.All(), specs.Stdio()) {
		add(sp.Name, "fa", writeFA(sp.FA))
		buggy, err := specs.BuggyFA(sp.Name, sp.Model)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		add(sp.Name, "buggy", writeFA(buggy))
		program, err := specs.ProgramFA(sp.Name, sp.Model)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		add(sp.Name, "program", writeFA(program))
		e, err := exp.Prepare(sp, exp.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		var snap bytes.Buffer
		if err := concept.WriteSnapshot(&snap, e.Lattice); err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		add(sp.Name, "lattice", snap.Bytes())
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "corpus.golden")
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
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%s has %d lines, the corpus gives %d", path, len(wantLines), len(lines))
	}
	for i, line := range lines {
		if line == wantLines[i] {
			continue
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		msg := fmt.Sprintf("%s differs from %s at line %d:\n got: %s\nwant: %s", key, path, i+1, line, wantLines[i])
		if !strings.HasSuffix(key, " lattice") {
			msg += "\nrendered:\n" + rendered[key]
		}
		t.Error(msg)
	}
}
