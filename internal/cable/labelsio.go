package cable

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/scanio"
)

// WriteLabels writes one "<label>\t<trace key>" line per labeled trace
// class, sorted, and returns how many it wrote. It is the writing half of
// label persistence, shared by the REPL's save command and by workspace
// files.
func WriteLabels(w io.Writer, s *Session) (int, error) {
	var lines []string
	for i, l := range s.labels {
		if l != Unlabeled {
			lines = append(lines, string(l)+"\t"+s.set.ClassKey(i))
		}
	}
	sort.Strings(lines)
	bw := bufio.NewWriter(w)
	for _, line := range lines {
		bw.WriteString(line)
		bw.WriteByte('\n')
	}
	return len(lines), bw.Flush()
}

// ApplyLabels reads "<label>\t<trace key>" lines (blank lines and #
// comments ignored) and labels the session's matching trace classes,
// returning how many applied. It is the parsing half of label persistence.
func ApplyLabels(s *Session, in io.Reader) (int, error) {
	byKey := map[string]int{}
	for i, t := range s.Representatives() {
		byKey[t.Key()] = i
	}
	sc := scanio.NewScanner(in)
	applied, lineno := 0, 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			return applied, scanio.LineError("cable: labels", lineno, fmt.Errorf("want \"<label>\\t<trace>\""))
		}
		if i, ok := byKey[parts[1]]; ok {
			s.LabelTrace(i, Label(parts[0]))
			applied++
		}
	}
	obs.Count("cable.labels.applied", int64(applied))
	return applied, scanio.LineError("cable: labels", lineno+1, sc.Err())
}
