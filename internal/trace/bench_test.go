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
	tb.Helper()
	const ops, classes = 24, 1000
	rng := rand.New(rand.NewSource(20030609))
	z := rand.NewZipf(rng, 1.05, 1, ops-1)
	set := &Set{}
	for i := 0; set.NumClasses() < classes; i++ {
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

func BenchmarkRead(b *testing.B) {
	text := bulkShapedText(b)
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
