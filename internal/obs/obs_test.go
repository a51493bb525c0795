package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	m := New()
	m.Counter("c").Add(3)
	m.Counter("c").Inc()
	if got := m.Counter("c").Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	m.Gauge("g").Set(7)
	m.Gauge("g").Add(-2)
	if got := m.Gauge("g").Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	h := m.Histogram("h")
	for _, v := range []int64{1, 2, 3, 100} {
		h.Observe(v)
	}
	st := m.Snapshot().Hists["h"]
	if st.Count != 4 || st.Sum != 106 || st.Min != 1 || st.Max != 100 {
		t.Errorf("hist stat = %+v", st)
	}
	if st.Mean() != 26 {
		t.Errorf("mean = %d, want 26", st.Mean())
	}
	if st.P50 < 2 || st.P50 > 3 {
		t.Errorf("p50 = %d, want within [2, 3]", st.P50)
	}
	if st.P99 != 100 {
		t.Errorf("p99 = %d, want clamped to max 100", st.P99)
	}
}

func TestSameNameSameInstrument(t *testing.T) {
	m := New()
	if m.Counter("x") != m.Counter("x") {
		t.Error("same counter name resolved to distinct instruments")
	}
	if m.Histogram("x") != m.Histogram("x") {
		t.Error("same histogram name resolved to distinct instruments")
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	m := New()
	sp := m.StartSpan("phase")
	time.Sleep(time.Millisecond)
	sp.End()
	st := m.Snapshot().Hists["phase"]
	if st.Count != 1 {
		t.Fatalf("span count = %d, want 1", st.Count)
	}
	if !st.Duration {
		t.Error("span histogram not marked as duration")
	}
	if st.Sum < int64(time.Millisecond) {
		t.Errorf("span recorded %v, want >= 1ms", time.Duration(st.Sum))
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var m *Metrics
	m.Counter("c").Add(1)
	m.Gauge("g").Set(1)
	m.Histogram("h").Observe(1)
	m.StartSpan("s").End()
	if got := m.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	if !m.Snapshot().Empty() {
		t.Error("nil registry snapshot not empty")
	}
	if !strings.HasPrefix(m.String(), "# obs snapshot") {
		t.Errorf("nil registry text = %q", m.String())
	}
}

func TestEnableDisableDefault(t *testing.T) {
	defer Disable()
	Disable()
	if Default() != nil {
		t.Fatal("Default() != nil after Disable")
	}
	m := Enable()
	if Default() != m {
		t.Fatal("Default() is not the enabled registry")
	}
	Count("c", 2)
	Observe("h", 5)
	StartSpan("s").End()
	snap := m.Snapshot()
	if snap.Counters["c"] != 2 {
		t.Errorf("package-level helpers did not hit the default registry: %+v", snap)
	}
	if snap.Hists["h"].Count != 1 || snap.Hists["s"].Count != 1 {
		t.Errorf("histogram helpers did not record: %+v", snap.Hists)
	}
	Disable()
	Count("c", 100) // must be a silent no-op
	if m.Counter("c").Value() != 2 {
		t.Error("Count after Disable mutated the old registry")
	}
}

// TestDisabledPathZeroAlloc is the benchmark guard the tentpole requires:
// with no registry installed, the full instrument sequence a hot-path
// function performs (span start/end, counter add, histogram observe) must
// not allocate at all.
func TestDisabledPathZeroAlloc(t *testing.T) {
	Disable()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := StartSpan("fa.executed")
		Count("fa.executed.rejected", 1)
		Observe("lattice.concepts", 42)
		Default().Gauge("cable.session.concepts").Set(4)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %.1f objects per op, want 0", allocs)
	}
}

func TestConcurrentUseIsSafe(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Counter("c").Inc()
				m.Histogram("h").Observe(int64(i%7 + 1))
				sp := m.StartSpan("s")
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.Counters["c"] != 4000 {
		t.Errorf("concurrent counter = %d, want 4000", snap.Counters["c"])
	}
	if snap.Hists["h"].Count != 4000 {
		t.Errorf("concurrent hist count = %d, want 4000", snap.Hists["h"].Count)
	}
}

func TestWriteTextFormat(t *testing.T) {
	m := New()
	m.Counter("b.count").Add(2)
	m.Counter("a.count").Add(1)
	m.Gauge("g").Set(-3)
	m.StartSpan("phase").End()
	m.Histogram("vals").Observe(10)
	text := m.String()
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if !strings.HasPrefix(lines[0], "# obs snapshot: 2 counters, 1 gauges, 2 histograms") {
		t.Errorf("header = %q", lines[0])
	}
	// Counters sorted by name.
	if !strings.HasPrefix(lines[1], "counter a.count") || !strings.HasPrefix(lines[2], "counter b.count") {
		t.Errorf("counter lines unsorted:\n%s", text)
	}
	if !strings.Contains(text, "gauge   g") {
		t.Errorf("missing gauge line:\n%s", text)
	}
	if !strings.Contains(text, "span    phase") {
		t.Errorf("span histogram not rendered as span:\n%s", text)
	}
	if !strings.Contains(text, "hist    vals") {
		t.Errorf("value histogram not rendered as hist:\n%s", text)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	h := newHistogram(false)
	h.Observe(0)
	h.Observe(-5)
	st := h.stat()
	if st.Min != -5 || st.Max != 0 {
		t.Errorf("min/max = %d/%d", st.Min, st.Max)
	}
	if st.P50 > 0 {
		t.Errorf("p50 of non-positive samples = %d, want <= 0", st.P50)
	}
	big := newHistogram(false)
	big.Observe(math.MaxInt64)
	if got := big.stat().P99; got != math.MaxInt64 {
		t.Errorf("p99 of MaxInt64 sample = %d", got)
	}
}

// BenchmarkDisabledOverhead measures the no-op fast path: this is what
// every instrumented hot-path call pays when -metrics is off.
func BenchmarkDisabledOverhead(b *testing.B) {
	Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartSpan("fa.executed")
		Count("fa.executed.calls", 1)
		sp.End()
	}
}

// BenchmarkEnabledSpan measures the enabled path (lookup + two clock
// reads + histogram update) for comparison.
func BenchmarkEnabledSpan(b *testing.B) {
	Enable()
	defer Disable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartSpan("fa.executed")
		sp.End()
	}
}
