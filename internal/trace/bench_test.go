package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/event"
)

// bulkShapedText renders a corpus shaped like the benchmark's bulk uploads:
// traces of 2 to 6 events over 24 operations, Zipf-drawn so a few
// operations are common and most are rare, until 1000 classes exist.
// Duplicate traces stay in, so the text is about 61 KB.
func bulkShapedText(tb testing.TB) []byte {
	return bulkShaped(tb, func(s *Set) bool { return s.NumClasses() < 1000 })
}

// batchText renders the first four traces bulkShapedText draws: the size
// of one of the benchmark's bulk add batches.
func batchText(tb testing.TB) []byte {
	return bulkShaped(tb, func(s *Set) bool { return s.Total() < 4 })
}

// bulkShaped renders bulk-shaped traces, drawing them while more holds.
func bulkShaped(tb testing.TB, more func(*Set) bool) []byte {
	tb.Helper()
	const ops = 24
	rng := rand.New(rand.NewSource(20030609))
	z := rand.NewZipf(rng, 1.05, 1, ops-1)
	set := &Set{}
	for i := 0; more(set); i++ {
		evs := make([]event.Event, 2+rng.Intn(5))
		for j := range evs {
			evs[j] = event.Call(fmt.Sprintf("op%02d", z.Uint64()), "X")
		}
		set.Add(New(fmt.Sprintf("t%d", i), evs...))
	}
	var buf bytes.Buffer
	if err := Write(&buf, set); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

var benchSet *Set

func BenchmarkRead(b *testing.B) { benchmarkRead(b, bulkShapedText(b)) }

// BenchmarkReadBatch reads one add batch of four traces.
func BenchmarkReadBatch(b *testing.B) { benchmarkRead(b, batchText(b)) }

func benchmarkRead(b *testing.B, text []byte) {
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Read(bytes.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		benchSet = s
	}
}

func BenchmarkWrite(b *testing.B) {
	text := bulkShapedText(b)
	set, err := Read(bytes.NewReader(text))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, set); err != nil {
			b.Fatal(err)
		}
	}
}
