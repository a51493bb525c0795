package concept

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// TestSnapshotRoundTrip pins the restore contract: a lattice read back
// from its snapshot is byte-identical (all tables) to the original, and
// the restored lattice supports incremental maintenance just like a
// freshly built one.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for iter := 0; iter < 60; iter++ {
		c := randomContext(rng, 10, 8)
		l := Build(c)
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, l); err != nil {
			t.Fatal(err)
		}
		restored, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		requireByteIdentical(t, restored, l, fmt.Sprintf("iter %d: restored snapshot", iter))
		for o := 0; o < restored.Context().NumObjects(); o++ {
			if restored.Context().ObjectName(o) != l.Context().ObjectName(o) {
				t.Fatalf("iter %d: object name %d changed", iter, o)
			}
		}
		// A restored lattice must accept incremental updates.
		row := bitset.New(restored.Context().NumAttributes())
		for a := 0; a < restored.Context().NumAttributes(); a++ {
			if rng.Intn(2) == 0 {
				row.Add(a)
			}
		}
		if err := restored.AddObjectCtx(context.Background(), "post-restore", row); err != nil {
			t.Fatal(err)
		}
		requireByteIdentical(t, restored, Build(restored.Context().clone()), fmt.Sprintf("iter %d: add after restore", iter))
	}
}

// TestSnapshotRejectsCorruption flips every byte of a valid snapshot and
// requires that no corruption is silently accepted as the original
// lattice: each flip must either fail to parse (the common case — the CRC
// trailer catches anything structural validation misses) or, where the
// mutation lands in a name length/content byte that still hashes... it
// cannot: the CRC covers every payload byte, so only trailer flips parse,
// and those fail the stored-vs-computed comparison. In short: every single
// flip must return an error.
func TestSnapshotRejectsCorruption(t *testing.T) {
	c := randomContext(rand.New(rand.NewSource(5)), 6, 5)
	l := Build(c)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, l); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for i := range orig {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x41
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte flip at offset %d accepted", i)
		}
	}
	// Truncations must error too, never hang or panic.
	for _, cut := range []int{0, 1, 4, 5, len(orig) / 2, len(orig) - 1} {
		if _, err := ReadSnapshot(bytes.NewReader(orig[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestSnapshotRejectsUnclosedRow covers the last validation ReadSnapshot
// runs, rebuilding the γ/μ tables: a snapshot with a valid CRC whose object
// row is not a closed intent of its concepts must come back as an error,
// not a panic. The input is a built lattice whose context row is tampered
// with before WriteSnapshot, so the CRC covers the bad row.
func TestSnapshotRejectsUnclosedRow(t *testing.T) {
	c := NewContext([]string{"frog", "dog", "eagle"}, []string{"swims", "barks", "flies"})
	for o := 0; o < 3; o++ {
		c.Relate(o, o)
	}
	l := Build(c)
	// The diagonal's intents are ∅, the singletons and the full set, so
	// {swims, barks} is not closed.
	l.Context().Attributes(0).Add(1)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, l); err != nil {
		t.Fatal(err)
	}
	_, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err == nil {
		t.Fatal("snapshot with an unclosed object row accepted")
	}
	if want := "row of object 0 is not a closed intent"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to mention %q", err, want)
	}
}

// FuzzSnapshotRoundTrip feeds arbitrary bytes to ReadSnapshot — which must
// never panic and never allocate unboundedly — and requires that anything
// it does accept re-serializes as a fixpoint: write(read(b)) parses again
// and writes identical bytes.
func FuzzSnapshotRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(89))
	for i := 0; i < 5; i++ {
		l := Build(randomContext(rng, 6, 5))
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, l); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(snapshotMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteSnapshot(&first, l); err != nil {
			t.Fatalf("re-serializing an accepted snapshot failed: %v", err)
		}
		again, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("round trip does not reparse: %v", err)
		}
		var second bytes.Buffer
		if err := WriteSnapshot(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("snapshot serialization is not a fixpoint")
		}
	})
}
