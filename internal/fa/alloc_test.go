package fa

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestExecutedObsZeroAllocOverhead guards the nil-receiver fast path on
// the fa.Executed hot path: the instrumentation hooks must add zero
// allocations when obs is disabled. Executed itself allocates (bitsets,
// frontier slices), so the guard compares its disabled-obs allocation
// count against the enabled-obs count — the difference is exactly what
// the hooks cost, and both the disabled and enabled obs paths are
// designed to be allocation-free.
func TestExecutedObsZeroAllocOverhead(t *testing.T) {
	b := NewBuilder("proto")
	s := b.States(3)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "X = open()", s[1])
	b.EdgeStr(s[1], "use(X)", s[1])
	b.EdgeStr(s[1], "close(X)", s[2])
	f := b.MustBuild()
	tr := trace.ParseEvents("t", "X = open()", "use(X)", "use(X)", "close(X)")

	obs.Disable()
	disabled := testing.AllocsPerRun(200, func() {
		if _, ok := f.Executed(tr); !ok {
			t.Fatal("trace unexpectedly rejected")
		}
	})

	m := obs.Enable()
	defer obs.Disable()
	// Warm the instruments so the measurement excludes one-time map inserts.
	m.Histogram("fa.executed")
	m.Counter("fa.executed.rejected")
	enabled := testing.AllocsPerRun(200, func() {
		if _, ok := f.Executed(tr); !ok {
			t.Fatal("trace unexpectedly rejected")
		}
	})

	if enabled != disabled {
		t.Errorf("obs hooks change fa.Executed allocations: disabled=%.1f enabled=%.1f", disabled, enabled)
	}
}
