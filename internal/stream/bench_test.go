package stream

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/event"
)

// BenchmarkFeed measures the per-event cost of the steady-state online
// check: full ring, live frontier, no violations.
func BenchmarkFeed(b *testing.B) {
	c := New(protocolFA(b).Sim(), Config{Window: 32})
	open := event.MustParse("X = open()")
	use := event.MustParse("use(X)")
	if _, _, err := c.Feed(open); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, fired, err := c.Feed(use); fired || err != nil {
			b.Fatal("steady-state feed fired or failed")
		}
	}
}

// BenchmarkFeedViolations measures the violation path: every fourth event
// kills the frontier, materializing a windowed counterexample and
// resetting.
func BenchmarkFeedViolations(b *testing.B) {
	c := New(protocolFA(b).Sim(), Config{Window: 8})
	evs := []event.Event{
		event.MustParse("X = open()"),
		event.MustParse("use(X)"),
		event.MustParse("use(X)"),
		event.MustParse("fclose(X)"), // dies here
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Feed(evs[i%len(evs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManyStreams interleaves events round-robin across 1000
// checkers sharing one compiled plan — the cabled concurrency shape, in
// miniature.
func BenchmarkManyStreams(b *testing.B) {
	const streams = 1000
	sim := protocolFA(b).Sim()
	cs := make([]*Checker, streams)
	for i := range cs {
		cs[i] = New(sim, Config{})
		if _, _, err := cs[i].Feed(event.MustParse("X = open()")); err != nil {
			b.Fatal(err)
		}
	}
	use := event.MustParse("use(X)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, fired, err := cs[i%streams].Feed(use); fired || err != nil {
			b.Fatal("steady-state feed fired or failed")
		}
	}
}

// BenchmarkIngest measures NDJSON decode + feed throughput end to end.
func BenchmarkIngest(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`{"event": "X = open()"}` + "\n")
	for i := 0; i < 98; i++ {
		fmt.Fprintf(&sb, `{"event": "use(X)"}`+"\n")
	}
	sb.WriteString(`{"event": "close(X)"}` + "\n")
	src := sb.String()
	sim := protocolFA(b).Sim()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(sim, Config{})
		if n, issues, err := Ingest(c, strings.NewReader(src), nil); n != 100 || len(issues) != 0 || err != nil {
			b.Fatalf("ingest: n=%d issues=%v err=%v", n, issues, err)
		}
	}
}

// BenchmarkIngestWarm measures one 32-event batch into a checker that has
// ingested before, as a cabled stream's batches are: the per-batch cost
// without the checker's set-up.
func BenchmarkIngestWarm(b *testing.B) {
	c := New(protocolFA(b).Sim(), Config{})
	if _, _, err := c.Feed(event.MustParse("X = open()")); err != nil {
		b.Fatal(err)
	}
	src := []byte(strings.Repeat(`{"event": "use(X)"}`+"\n", 32))
	r := bytes.NewReader(nil)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(src)
		if n, issues, err := Ingest(c, r, nil); n != 32 || len(issues) != 0 || err != nil {
			b.Fatalf("ingest: n=%d issues=%v err=%v", n, issues, err)
		}
	}
}
