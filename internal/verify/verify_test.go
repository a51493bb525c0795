package verify

import (
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/mine"
	"repro/internal/trace"
)

// buggyStdio is the specification of Figure 1.
func buggyStdio() *fa.FA {
	b := fa.NewBuilder("stdio-buggy")
	s := b.States(3)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "X = fopen()", s[1])
	b.EdgeStr(s[0], "X = popen()", s[1])
	b.EdgeStr(s[1], "fread(X)", s[1])
	b.EdgeStr(s[1], "fwrite(X)", s[1])
	b.EdgeStr(s[1], "fclose(X)", s[2])
	return b.MustBuild()
}

func tr(id string, events ...string) trace.Trace { return trace.ParseEvents(id, events...) }

func TestCheck(t *testing.T) {
	spec := buggyStdio()
	traces := []trace.Trace{
		tr("ok", "X = fopen()", "fclose(X)"),
		tr("pclose", "X = popen()", "pclose(X)"),
		tr("leak", "X = fopen()", "fread(X)"),
	}
	vs := check(spec, traces)
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2", len(vs))
	}
	if vs[0].Trace.ID != "pclose" || vs[0].At != 1 {
		t.Errorf("violation 0 = %+v", vs[0])
	}
	if vs[1].Trace.ID != "leak" || vs[1].At != 2 {
		t.Errorf("violation 1 = %+v", vs[1])
	}
	if !strings.Contains(vs[0].String(), "pclose(X)") {
		t.Errorf("violation rendering = %q", vs[0])
	}
	if !strings.Contains(vs[1].String(), "incomplete") {
		t.Errorf("leak rendering = %q", vs[1])
	}
}

func TestCheckSetAndPartition(t *testing.T) {
	spec := buggyStdio()
	set := trace.NewSet(
		tr("a", "X = fopen()", "fclose(X)"),
		tr("b", "X = popen()", "pclose(X)"),
		tr("c", "X = popen()", "pclose(X)"),
	)
	vset, vs := CheckSet(spec, set)
	if vset.Total() != 2 || vset.NumClasses() != 1 || len(vs) != 2 {
		t.Fatalf("vset Total=%d Classes=%d len(vs)=%d", vset.Total(), vset.NumClasses(), len(vs))
	}
	acc, rej := partition(spec, set)
	if acc.Total() != 1 || rej.Total() != 2 {
		t.Fatalf("Partition: acc=%d rej=%d", acc.Total(), rej.Total())
	}
}

func TestCheckRuns(t *testing.T) {
	spec := buggyStdio()
	runs := []mine.Run{{
		ID: "p:r1",
		Events: []event.Concrete{
			{Op: "fopen", Def: 1},
			{Op: "popen", Def: 2},
			{Op: "fclose", Uses: []event.ObjID{1}},
			{Op: "pclose", Uses: []event.ObjID{2}},
		},
	}}
	fe := mine.FrontEnd{Seeds: []string{"fopen", "popen"}}
	vset, vs := checkRuns(spec, fe, runs)
	if vset.Total() != 1 || len(vs) != 1 {
		t.Fatalf("got %d violations", len(vs))
	}
	if vs[0].Trace.Key() != "X = popen(); pclose(X)" {
		t.Errorf("violation trace = %q", vs[0].Trace.Key())
	}
}

func TestCheckEmpty(t *testing.T) {
	if vs := check(buggyStdio(), nil); vs != nil {
		t.Errorf("violations on empty input: %v", vs)
	}
}

func TestExplain(t *testing.T) {
	spec := buggyStdio()
	// Wrong event mid-trace: pclose where fclose/fread/fwrite expected.
	exp, ok := Explain(spec, tr("", "X = popen()", "pclose(X)"))
	if !ok {
		t.Fatal("accepted trace has no explanation")
	}
	if exp.At != 1 || exp.Got != "pclose(X)" {
		t.Errorf("explanation = %+v", exp)
	}
	want := "fclose(X), fread(X), fwrite(X)"
	if strings.Join(exp.Expected, ", ") != want {
		t.Errorf("Expected = %v, want %q", exp.Expected, want)
	}
	if !strings.Contains(exp.String(), "expected one of") {
		t.Errorf("rendering = %q", exp.String())
	}

	// End-of-trace rejection: the leak.
	exp, ok = Explain(spec, tr("", "X = fopen()", "fread(X)"))
	if !ok || exp.At != 2 || exp.Got != "" {
		t.Fatalf("leak explanation = %+v, ok=%v", exp, ok)
	}
	if !strings.Contains(exp.String(), "trace ends") {
		t.Errorf("rendering = %q", exp.String())
	}

	// Accepted traces have nothing to explain.
	if _, ok := Explain(spec, tr("", "X = fopen()", "fclose(X)")); ok {
		t.Error("explanation produced for accepted trace")
	}

	// Rejection with no live states: the expected set is empty.
	exp, ok = Explain(spec, tr("", "zzz()"))
	if !ok || len(exp.Expected) != 2 { // fopen/popen from the start state
		t.Errorf("start-state explanation = %+v", exp)
	}
}

// checkRuns extracts scenarios from whole-program runs with the front end
// and checks each against the specification — the "test a specification
// against a program" workflow of Section 2.1.
func checkRuns(spec *fa.FA, fe mine.FrontEnd, runs []mine.Run) (*trace.Set, []Violation) {
	return CheckSet(spec, fe.ExtractAll(runs))
}

// check simulates each trace against the specification and returns the
// violations in input order.
func check(spec *fa.FA, traces []trace.Trace) []Violation {
	var out []Violation
	for _, t := range traces {
		if at := spec.Sim().RejectsAt(t); at >= 0 {
			out = append(out, Violation{Trace: t, At: at})
		}
	}
	return out
}

// partition splits a set into the traces the specification accepts and the
// traces it rejects, preserving multiplicities; each class is simulated
// once.
func partition(spec *fa.FA, set *trace.Set) (accepted, rejected *trace.Set) {
	accepted, rejected = &trace.Set{}, &trace.Set{}
	for _, cl := range set.Classes() {
		dst := accepted
		if !spec.Sim().Accepts(cl.Rep) {
			dst = rejected
		}
		for j := 0; j < cl.Count; j++ {
			t := cl.Rep
			t.ID = cl.IDs[j]
			dst.Add(t)
		}
	}
	return accepted, rejected
}
