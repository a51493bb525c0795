package fa

import (
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/trace"
)

// TestCursorMatchesRejectsAt pins the online cursor against the batch
// simulator: feeding a trace event by event must die at exactly the index
// RejectsAt reports, and end accepting iff Accepts accepts.
func TestCursorMatchesRejectsAt(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for iter := 0; iter < 200; iter++ {
		f := randomFA(rng)
		sim := f.Sim()
		cur := sim.NewCursor()
		for tr := 0; tr < 20; tr++ {
			tt := randomTrace(rng, 8)
			want := sim.RejectsAt(tt)
			cur.Reset()
			died := -1
			for i, e := range tt.Events {
				if !cur.Step(e) {
					died = i
					break
				}
			}
			switch {
			case want == -1:
				if died != -1 || !cur.Accepting() {
					t.Fatalf("accepted trace %q: cursor died at %d accepting=%v", tt.Key(), died, cur.Accepting())
				}
			case want == len(tt.Events):
				if died != -1 || cur.Accepting() {
					t.Fatalf("incomplete trace %q: cursor died at %d accepting=%v", tt.Key(), died, cur.Accepting())
				}
			default:
				if died != want {
					t.Fatalf("trace %q: cursor died at %d, RejectsAt = %d", tt.Key(), died, want)
				}
				if len(cur.States(nil)) > 0 {
					t.Fatalf("trace %q: cursor alive after dead Step", tt.Key())
				}
			}
		}
	}
}

func TestCursorStatesRoundTrip(t *testing.T) {
	f := protocolFA(t)
	sim := f.Sim()
	cur := sim.NewCursor()
	tt := trace.ParseEvents("t", "X = open()", "use(X)")
	for _, e := range tt.Events {
		if !cur.Step(e) {
			t.Fatal("protocol prefix died")
		}
	}
	states := cur.States(nil)
	if len(states) == 0 {
		t.Fatal("live cursor exported no states")
	}
	fresh := sim.NewCursor()
	if err := fresh.SetStates(states); err != nil {
		t.Fatal(err)
	}
	// The restored cursor must behave exactly like the original.
	if !fresh.Step(event.MustParse("close(X)")) || !fresh.Accepting() {
		t.Fatal("restored cursor did not accept the protocol suffix")
	}
	if err := fresh.SetStates([]int{999}); err == nil {
		t.Fatal("out-of-range state accepted")
	}
}

func TestCursorZeroAllocSteadyState(t *testing.T) {
	f := protocolFA(t)
	cur := f.Sim().NewCursor()
	ev := event.MustParse("use(X)")
	open := event.MustParse("X = open()")
	cur.Step(open)
	allocs := testing.AllocsPerRun(500, func() {
		if !cur.Step(ev) {
			t.Fatal("frontier died")
		}
	})
	if allocs != 0 {
		t.Fatalf("Step allocates %v per call, want 0", allocs)
	}
}

// protocolFA builds the open/use*/close protocol used across cursor tests.
func protocolFA(t *testing.T) *FA {
	t.Helper()
	b := NewBuilder("proto")
	s := b.States(3)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "X = open()", s[1])
	b.EdgeStr(s[1], "use(X)", s[1])
	b.EdgeStr(s[1], "close(X)", s[2])
	return b.MustBuild()
}
