// Package obs is the repository's observability layer: a registry of
// named counters, gauges, and histograms, plus phase-scoped Span timers,
// all stdlib-only and safe for concurrent use.
//
// The layer is built around one rule: when observability is disabled it
// must cost nothing on the hot path. A nil *Metrics is a fully valid
// no-op registry — every method on it, and on every instrument it hands
// out, returns immediately — and the disabled path performs zero heap
// allocations (guarded by TestDisabledPathZeroAlloc and
// BenchmarkDisabledOverhead). Instrumented code therefore reads
//
//	sp := obs.StartSpan("lattice.build")
//	defer sp.End()
//
// unconditionally; whether anything is recorded depends only on whether a
// registry is installed via Enable (typically by a CLI's -metrics flag).
//
// Span names follow a "<layer>.<phase>" convention (trace.read,
// fa.compile, fa.accepts, fa.rejectsat, fa.executed, concept.context,
// lattice.build, lattice.link_covers, lattice.tables, lattice.incr.add,
// cable.session, exp.prepare) so a snapshot reads as a
// phase-attributed profile of the Cable pipeline; see DESIGN.md's
// Observability section.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is a registry of named instruments. The same name always
// resolves to the same instrument; distinct kinds (counter vs histogram)
// live in distinct namespaces. A nil *Metrics is the no-op registry.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry, independent of the process default.
func New() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// active is the process-default registry; nil means disabled.
var active atomic.Pointer[Metrics]

// Enable installs a fresh registry as the process default and returns it.
func Enable() *Metrics {
	m := New()
	active.Store(m)
	return m
}

// Disable removes the process-default registry; Default returns nil until
// the next Enable.
func Disable() { active.Store(nil) }

// Default returns the process-default registry, or nil when observability
// is disabled. The nil result is directly usable as a no-op registry.
func Default() *Metrics { return active.Load() }

// Counter is a monotonically increasing count. A nil *Counter is a no-op.
type Counter struct{ v atomic.Int64 }

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instantaneous measurement. A nil *Gauge is a
// no-op.
type Gauge struct {
	set atomic.Bool
	v   atomic.Int64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.set.Store(true)
}

// Value returns the gauge's current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates int64 samples: exact count/sum/min/max plus
// power-of-two buckets for approximate quantiles. Duration histograms
// (fed by Spans) carry a nanosecond unit so snapshots print them as
// durations. A nil *Histogram is a no-op.
type Histogram struct {
	duration bool // samples are nanoseconds
	count    atomic.Int64
	sum      atomic.Int64
	min      atomic.Int64
	max      atomic.Int64
	// buckets[i] counts samples v with bits.Len64(v) == i (v <= 0 in
	// bucket 0), i.e. bucket i spans [2^(i-1), 2^i).
	buckets [65]atomic.Int64
}

func newHistogram(duration bool) *Histogram {
	h := &Histogram{duration: duration}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Span is an in-flight phase timer. The zero Span (from a nil registry)
// is a no-op; End on it does nothing. Spans are values — starting and
// ending one never allocates.
type Span struct {
	h     *Histogram
	start time.Time
}

// End stops the span and records its elapsed time.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(int64(time.Since(s.start)))
	}
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns a nil (no-op) counter.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. On a nil
// registry it returns a nil (no-op) gauge.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	g := m.gauges[name]
	m.mu.RUnlock()
	if g != nil {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g = m.gauges[name]; g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named value histogram, creating it on first use.
// On a nil registry it returns a nil (no-op) histogram.
func (m *Metrics) Histogram(name string) *Histogram { return m.histogram(name, false) }

func (m *Metrics) histogram(name string, duration bool) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.hists[name]; h == nil {
		h = newHistogram(duration)
		m.hists[name] = h
	}
	return h
}

// StartSpan starts a phase timer whose elapsed time lands in the named
// duration histogram when End is called. On a nil registry it returns the
// zero (no-op) Span without reading the clock.
func (m *Metrics) StartSpan(name string) Span {
	if m == nil {
		return Span{}
	}
	return Span{h: m.histogram(name, true), start: time.Now()}
}

// Package-level conveniences against the process-default registry. All of
// them are allocation-free no-ops while observability is disabled.

// StartSpan starts a phase timer on the default registry.
func StartSpan(name string) Span { return Default().StartSpan(name) }

// Count adds n to the named counter on the default registry.
func Count(name string, n int64) { Default().Counter(name).Add(n) }

// Observe records a sample in the named histogram on the default registry.
func Observe(name string, v int64) { Default().Histogram(name).Observe(v) }

// HistStat is one histogram's summary in a Snapshot. Quantiles are
// approximate (power-of-two bucket upper bounds, clamped to the exact
// max); Count/Sum/Min/Max are exact.
type HistStat struct {
	Duration             bool
	Count, Sum, Min, Max int64
	P50, P90, P99        int64
}

// Mean returns the arithmetic mean sample, or 0 for an empty histogram.
func (h HistStat) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]int64
	Hists    map[string]HistStat
}

// Snapshot copies the registry's current state. A nil registry yields the
// empty snapshot.
func (m *Metrics) Snapshot() Snapshot {
	out := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]int64{},
		Hists:    map[string]HistStat{},
	}
	if m == nil {
		return out
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for name, c := range m.counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		out.Gauges[name] = g.Value()
	}
	for name, h := range m.hists {
		out.Hists[name] = h.stat()
	}
	return out
}

func (h *Histogram) stat() HistStat {
	st := HistStat{
		Duration: h.duration,
		Count:    h.count.Load(),
		Sum:      h.sum.Load(),
	}
	if st.Count == 0 {
		return st
	}
	st.Min = h.min.Load()
	st.Max = h.max.Load()
	st.P50 = h.quantile(0.50, st.Count, st.Max)
	st.P90 = h.quantile(0.90, st.Count, st.Max)
	st.P99 = h.quantile(0.99, st.Count, st.Max)
	return st
}

// quantile approximates the q-quantile as the upper bound of the first
// bucket whose cumulative count reaches q·total, clamped to the exact max.
func (h *Histogram) quantile(q float64, total, max int64) int64 {
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			var upper int64
			if i == 0 {
				upper = 0
			} else if i >= 63 {
				upper = math.MaxInt64
			} else {
				upper = int64(1)<<uint(i) - 1
			}
			if upper > max {
				upper = max
			}
			return upper
		}
	}
	return max
}

// WriteText renders a sorted, line-oriented snapshot:
//
//	# obs snapshot: <counts>
//	counter <name> <value>
//	gauge   <name> <value>
//	span    <name> count=… sum=… min=… mean=… p50~… p90~… max=…
//	hist    <name> count=… sum=… min=… mean=… p50~… p90~… max=…
//
// "span" lines are duration histograms (values printed as durations);
// "hist" lines are plain value histograms. A nil registry writes only the
// header line.
func (m *Metrics) WriteText(w io.Writer) error {
	snap := m.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "# obs snapshot: %d counters, %d gauges, %d histograms\n",
		len(snap.Counters), len(snap.Gauges), len(snap.Hists))
	for _, name := range sortedKeys(snap.Counters) {
		fmt.Fprintf(&b, "counter %-36s %d\n", name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fmt.Fprintf(&b, "gauge   %-36s %d\n", name, snap.Gauges[name])
	}
	for _, name := range sortedKeys(snap.Hists) {
		st := snap.Hists[name]
		kind := "hist   "
		if st.Duration {
			kind = "span   "
		}
		if st.Count == 0 {
			fmt.Fprintf(&b, "%s %-36s count=0\n", kind, name)
			continue
		}
		fmt.Fprintf(&b, "%s %-36s count=%d sum=%s min=%s mean=%s p50~%s p90~%s max=%s\n",
			kind, name, st.Count,
			fmtVal(st.Sum, st.Duration), fmtVal(st.Min, st.Duration),
			fmtVal(st.Mean(), st.Duration), fmtVal(st.P50, st.Duration),
			fmtVal(st.P90, st.Duration), fmtVal(st.Max, st.Duration))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the snapshot text (for logs and tests).
func (m *Metrics) String() string {
	var b strings.Builder
	m.WriteText(&b)
	return b.String()
}

func fmtVal(v int64, duration bool) string {
	if duration {
		d := time.Duration(v)
		switch {
		case d >= time.Second:
			d = d.Round(time.Millisecond)
		case d >= time.Millisecond:
			d = d.Round(time.Microsecond)
		}
		return d.String()
	}
	return fmt.Sprintf("%d", v)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
