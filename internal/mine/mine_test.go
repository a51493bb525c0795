package mine

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/trace"
)

// stdioRun builds a concrete run interleaving two file-pointer lifecycles
// plus unrelated noise events.
func stdioRun() Run {
	return Run{
		ID: "prog:run1",
		Events: []event.Concrete{
			{Op: "fopen", Def: 1},
			{Op: "puts"}, // noise: touches no object
			{Op: "popen", Def: 2},
			{Op: "fread", Uses: []event.ObjID{1}},
			{Op: "fwrite", Uses: []event.ObjID{2}},
			{Op: "fclose", Uses: []event.ObjID{1}},
			{Op: "pclose", Uses: []event.ObjID{2}},
		},
	}
}

// extract returns the scenarios ExtractAll slices from one run, in
// seed-occurrence order, each under its own ID.
func extract(fe FrontEnd, run Run) []trace.Trace {
	set := fe.ExtractAll([]Run{run})
	out := make([]trace.Trace, set.Total())
	for _, c := range set.Classes() {
		for _, id := range c.IDs {
			n, err := strconv.Atoi(id[strings.LastIndexByte(id, '#')+1:])
			if err != nil {
				panic(err)
			}
			out[n] = trace.Trace{ID: id, Events: c.Rep.Events}
		}
	}
	return out
}

func TestExtractScenarios(t *testing.T) {
	fe := FrontEnd{Seeds: []string{"fopen", "popen"}}
	scenarios := extract(fe, stdioRun())
	if len(scenarios) != 2 {
		t.Fatalf("got %d scenarios, want 2", len(scenarios))
	}
	if got := scenarios[0].Key(); got != "X = fopen(); fread(X); fclose(X)" {
		t.Errorf("scenario 0 = %q", got)
	}
	if got := scenarios[1].Key(); got != "X = popen(); fwrite(X); pclose(X)" {
		t.Errorf("scenario 1 = %q", got)
	}
	if scenarios[0].ID != "prog:run1#0" || scenarios[1].ID != "prog:run1#1" {
		t.Errorf("scenario IDs = %q, %q", scenarios[0].ID, scenarios[1].ID)
	}
}

func TestExtractInterleavingSeparated(t *testing.T) {
	// Events of one object never leak into another scenario, no matter the
	// interleaving.
	run := Run{ID: "r", Events: []event.Concrete{
		{Op: "fopen", Def: 1},
		{Op: "fopen", Def: 2},
		{Op: "fread", Uses: []event.ObjID{2}},
		{Op: "fread", Uses: []event.ObjID{1}},
		{Op: "fclose", Uses: []event.ObjID{2}},
		{Op: "fclose", Uses: []event.ObjID{1}},
	}}
	fe := FrontEnd{Seeds: []string{"fopen"}}
	scenarios := extract(fe, run)
	if len(scenarios) != 2 {
		t.Fatalf("got %d scenarios", len(scenarios))
	}
	want := "X = fopen(); fread(X); fclose(X)"
	for i, sc := range scenarios {
		if sc.Key() != want {
			t.Errorf("scenario %d = %q, want %q", i, sc.Key(), want)
		}
	}
}

func TestExtractFollowDerived(t *testing.T) {
	// A display-derived GC: with FollowDerived, events on the GC join the
	// display's scenario; without, they do not.
	run := Run{ID: "r", Events: []event.Concrete{
		{Op: "XOpenDisplay", Def: 1},
		{Op: "XCreateGC", Def: 2, Uses: []event.ObjID{1}},
		{Op: "XSetFont", Uses: []event.ObjID{2}},
		{Op: "XFreeGC", Uses: []event.ObjID{2}},
		{Op: "XCloseDisplay", Uses: []event.ObjID{1}},
	}}
	with := extract(FrontEnd{Seeds: []string{"XOpenDisplay"}, FollowDerived: true}, run)
	if got := with[0].Key(); got != "X = XOpenDisplay(); Y = XCreateGC(X); XSetFont(Y); XFreeGC(Y); XCloseDisplay(X)" {
		t.Errorf("derived scenario = %q", got)
	}
	// Without FollowDerived the GC object stays untracked: its definition
	// renders anonymously and its later events are excluded.
	without := extract(FrontEnd{Seeds: []string{"XOpenDisplay"}}, run)
	if got := without[0].Key(); got != "X = XOpenDisplay(); _ = XCreateGC(X); XCloseDisplay(X)" {
		t.Errorf("non-derived scenario = %q", got)
	}
}

func TestExtractUntrackedObjectsAnonymous(t *testing.T) {
	run := Run{ID: "r", Events: []event.Concrete{
		{Op: "fopen", Def: 1},
		{Op: "copy", Uses: []event.ObjID{1, 99}}, // 99 is unrelated
		{Op: "fclose", Uses: []event.ObjID{1}},
	}}
	scenarios := extract(FrontEnd{Seeds: []string{"fopen"}}, run)
	if got := scenarios[0].Key(); got != "X = fopen(); copy(X, _); fclose(X)" {
		t.Errorf("scenario = %q", got)
	}
}

func TestExtractSeedWithoutDefIgnored(t *testing.T) {
	run := Run{ID: "r", Events: []event.Concrete{
		{Op: "fopen"}, // ignored: no object defined
		{Op: "fopen", Def: 1},
		{Op: "fclose", Uses: []event.ObjID{1}},
	}}
	scenarios := extract(FrontEnd{Seeds: []string{"fopen"}}, run)
	if len(scenarios) != 1 {
		t.Fatalf("got %d scenarios, want 1", len(scenarios))
	}
}

func TestExtractAllDedups(t *testing.T) {
	fe := FrontEnd{Seeds: []string{"fopen", "popen"}}
	set := fe.ExtractAll([]Run{stdioRun(), stdioRun()})
	if set.Total() != 4 || set.NumClasses() != 2 {
		t.Fatalf("Total=%d NumClasses=%d", set.Total(), set.NumClasses())
	}
}

func TestMineEndToEnd(t *testing.T) {
	// A training set with a frequent correct protocol and one buggy run
	// (popen closed with fclose): the mined FA accepts the erroneous
	// scenario — the debugging problem.
	var runs []Run
	for i := 0; i < 5; i++ {
		runs = append(runs, stdioRun())
	}
	runs = append(runs, Run{ID: "buggy", Events: []event.Concrete{
		{Op: "popen", Def: 9},
		{Op: "fclose", Uses: []event.ObjID{9}},
	}})
	m := Miner{FrontEnd: FrontEnd{Seeds: []string{"fopen", "popen"}}}
	spec, scenarios, err := m.Mine("stdio", runs)
	if err != nil {
		t.Fatal(err)
	}
	if scenarios.Total() != 11 || scenarios.NumClasses() != 3 {
		t.Fatalf("scenarios Total=%d NumClasses=%d", scenarios.Total(), scenarios.NumClasses())
	}
	for _, c := range scenarios.Classes() {
		if !spec.Accepts(c.Rep) {
			t.Errorf("mined spec rejects its own scenario %q", c.Rep.Key())
		}
	}
	if !spec.Accepts(trace.ParseEvents("", "X = popen()", "fclose(X)")) {
		t.Error("mined spec does not exhibit the expected bug")
	}

	// Relearn on the good classes only: the bug disappears.
	good := &trace.Set{}
	for _, c := range scenarios.Classes() {
		if !strings.Contains(c.Rep.Key(), "popen(); fclose") {
			for range c.IDs {
				good.Add(c.Rep)
			}
		}
	}
	fixed, err := m.Relearn("stdio-fixed", good)
	if err != nil {
		t.Fatal(err)
	}
	if fixed.Accepts(trace.ParseEvents("", "X = popen()", "fclose(X)")) {
		t.Error("relearned spec still buggy")
	}
	if !fixed.Accepts(trace.ParseEvents("", "X = fopen()", "fread(X)", "fclose(X)")) {
		t.Error("relearned spec lost good behaviour")
	}
}

func TestBackEndCoring(t *testing.T) {
	set := &trace.Set{}
	for i := 0; i < 10; i++ {
		set.Add(trace.ParseEvents("", "X = fopen()", "fclose(X)"))
	}
	set.Add(trace.ParseEvents("", "X = popen()", "fclose(X)"))
	be := BackEnd{CoreThreshold: 3}
	spec, err := be.Infer("cored", set)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Accepts(trace.ParseEvents("", "X = popen()", "fclose(X)")) {
		t.Error("coring kept rare erroneous scenario")
	}
	if !spec.Accepts(trace.ParseEvents("", "X = fopen()", "fclose(X)")) {
		t.Error("coring dropped frequent good scenario")
	}
}
