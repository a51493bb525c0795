package concept

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/binio"
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
		restored, err := ReadSnapshot(buf.Bytes())
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

// TestSnapshotAcceptsAnyNumbering pins the other side of the reader's
// checks: the lattice of the stored context is accepted in any concept
// numbering, such as BuildNaive's, and restored table for table.
func TestSnapshotAcceptsAnyNumbering(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	for iter := 0; iter < 30; iter++ {
		naive := BuildNaive(randomContext(rng, 10, 8))
		restored, err := ReadSnapshot(snapshotBytes(t, naive))
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		requireByteIdentical(t, restored, naive, fmt.Sprintf("iter %d: restored naive-built snapshot", iter))
	}
}

// TestSnapshotRejectsCorruption requires that no truncation or bit flip of
// a valid snapshot is accepted, and that each failure is typed: the reader
// checks the CRC trailer first, so every strict prefix fails as truncated
// input (io.ErrUnexpectedEOF) or as a checksum mismatch, and so does every
// single-bit flip.
func TestSnapshotRejectsCorruption(t *testing.T) {
	c := randomContext(rand.New(rand.NewSource(5)), 6, 5)
	l := Build(c)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, l); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	typed := func(err error) bool {
		return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, binio.ErrChecksum)
	}
	for cut := 0; cut < len(orig); cut++ {
		if _, err := ReadSnapshot(orig[:cut]); !typed(err) {
			t.Fatalf("truncation to %d bytes: err = %v, want a truncation or checksum error", cut, err)
		}
	}
	for bit := 0; bit < 8*len(orig); bit++ {
		mut := append([]byte(nil), orig...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := ReadSnapshot(mut); !typed(err) {
			t.Fatalf("flip of bit %d: err = %v, want a truncation or checksum error", bit, err)
		}
	}
}

// TestSnapshotRejectsResealed covers the checks behind a valid CRC: a
// payload edited and sealed again must still fail on its magic, version,
// header, bits, parents or length.
func TestSnapshotRejectsResealed(t *testing.T) {
	c := NewContext([]string{"frog", "dog", "eagle"}, []string{"swims", "barks", "flies"})
	for o := 0; o < 3; o++ {
		c.Relate(o, o)
	}
	orig, err := AppendSnapshot(nil, Build(c))
	if err != nil {
		t.Fatal(err)
	}
	payload := orig[:len(orig)-4]
	// Offsets into the payload: the header's five counts follow the magic
	// and version; the first object row follows the six names.
	const header = 5
	firstRow := header + 20 + 6*4 + len("frogdogeagleswimsbarksflies")
	edit := func(f func(p []byte) []byte) []byte {
		w := binio.Writer(f(append([]byte(nil), payload...)))
		w.Seal(0)
		return w
	}
	u32 := func(p []byte, at int, v uint32) []byte {
		binary.LittleEndian.PutUint32(p[at:], v)
		return p
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"magic", edit(func(p []byte) []byte { p[0] = 'X'; return p }), "bad magic"},
		{"version", edit(func(p []byte) []byte { p[4] = 2; return p }), "unsupported version 2"},
		{"object count", edit(func(p []byte) []byte { return u32(p, header, 1<<20) }), "unexpected EOF"},
		{"dimension cap", edit(func(p []byte) []byte { return u32(p, header+8, 1<<25) }), "exceeds the cap 16777216"},
		{"top", edit(func(p []byte) []byte { return u32(p, header+12, 99) }), "out of range"},
		{"row bit", edit(func(p []byte) []byte { p[firstRow+4] = 1 << 3; return p }), "beyond universe 3"},
		{"trailing", edit(func(p []byte) []byte { return append(p, 0) }), "1 trailing bytes"},
		{"parents", edit(func(p []byte) []byte {
			// Give the last concept's parent list a bad entry: the
			// payload ends with it, and a lattice with several concepts
			// has a parent for every concept but the top.
			return u32(p, len(p)-4, 1<<20)
		}), "not strictly ascending"},
	} {
		_, err := ReadSnapshot(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "concept: snapshot: ") {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
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
	_, err := ReadSnapshot(buf.Bytes())
	if err == nil {
		t.Fatal("snapshot with an unclosed object row accepted")
	}
	if want := "row of object 0 is not a closed intent"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to mention %q", err, want)
	}
}

// TestSnapshotRejectsForeignLattice covers the checks ReadSnapshot runs
// against the snapshot's own context: a dump with a valid CRC whose
// extents, covers, top/bottom or concept set are not those of the lattice
// of its context must come back as an error, never a panic, and one whose
// context has far more concepts than it stores must fail before the check
// builds them. Each input is a lattice edited or assembled before
// WriteSnapshot, so the CRC covers the edit.
func TestSnapshotRejectsForeignLattice(t *testing.T) {
	diagonal := func() *Lattice {
		c := NewContext([]string{"frog", "dog", "eagle"}, []string{"swims", "barks", "flies"})
		for o := 0; o < 3; o++ {
			c.Relate(o, o)
		}
		return Build(c)
	}
	for _, tc := range []struct {
		name string
		l    func() *Lattice
		want string
	}{
		{"top extent", func() *Lattice {
			l := diagonal()
			l.concepts[l.top].Extent.DifferenceWith(bitset.FromSlice([]int{0}))
			return l
		}, "extent of concept 3 is not τ of its intent"},
		{"bottom parents", func() *Lattice {
			l := diagonal()
			l.parents[l.bottom] = []int{l.top}
			return l
		}, "parents of concept 0 are not its covers"},
		{"top/bottom swapped", func() *Lattice {
			l := diagonal()
			l.top, l.bottom = l.bottom, l.top
			return l
		}, "top/bottom 0/3, the covers give 3/0"},
		{"dropped concept", func() *Lattice {
			l := Build(contranominalContext(4))
			for _, c := range l.concepts {
				if c.Intent.Len() == 2 {
					return dropConcept(l, c.ID)
				}
			}
			t.Fatal("no 2-attribute concept")
			return nil
		}, "the context has more than 15 concepts"},
		{"exponential context", func() *Lattice {
			// Contranominal k=16 has 2^16 concepts. A dump of its 16
			// rows, 16 attribute concepts and the full set passes the
			// table checks, and the loop must stop past 33 concepts.
			c := contranominalContext(16)
			l := &Lattice{ctx: c}
			add := func(intent *bitset.Set) {
				l.concepts = append(l.concepts, &Concept{ID: len(l.concepts), Extent: c.Tau(intent), Intent: intent})
				l.parents = append(l.parents, []int{})
			}
			add(bitset.Full(16))
			for o := 0; o < 16; o++ {
				add(c.Attributes(o))
				add(bitset.FromSlice([]int{o}))
			}
			return l
		}, "the context has more than 33 concepts"},
	} {
		data, err := AppendSnapshot(nil, tc.l())
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReadSnapshot(data)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "concept: snapshot: ") {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// dropConcept returns l without concept d as WriteSnapshot sees it: later
// IDs shift down by one and d leaves every parent list. In a contranominal
// scale every child of a 2-attribute concept keeps two other covers, above
// which d's own parents lie, so the lists left are the Hasse diagram of
// the remaining concepts.
func dropConcept(l *Lattice, d int) *Lattice {
	id := func(c int) int {
		if c > d {
			return c - 1
		}
		return c
	}
	out := &Lattice{ctx: l.ctx, top: id(l.top), bottom: id(l.bottom)}
	for ci, c := range l.concepts {
		if ci == d {
			continue
		}
		out.concepts = append(out.concepts, c)
		ps := []int{}
		for _, p := range l.parents[ci] {
			if p != d {
				ps = append(ps, id(p))
			}
		}
		out.parents = append(out.parents, ps)
	}
	return out
}

// FuzzSnapshotRoundTrip feeds arbitrary bytes to ReadSnapshot — which must
// never panic and never allocate unboundedly — and requires that anything
// it does accept is the lattice Build makes of its context, up to concept
// numbering (the same intent and extent pairs, covers, top and bottom),
// and re-serializes as a fixpoint: write(read(b)) parses again and writes
// identical bytes.
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
		l, err := ReadSnapshot(data)
		if err != nil {
			return
		}
		own := Build(l.Context().clone())
		if !equalLattices(l, own) ||
			!l.Concept(l.Top()).Intent.Equal(own.Concept(own.Top()).Intent) ||
			!l.Concept(l.Bottom()).Intent.Equal(own.Concept(own.Bottom()).Intent) {
			t.Fatalf("accepted snapshot is not the lattice of its context:\n%s\nBuild:\n%s", l, own)
		}
		var first bytes.Buffer
		if err := WriteSnapshot(&first, l); err != nil {
			t.Fatalf("re-serializing an accepted snapshot failed: %v", err)
		}
		again, err := ReadSnapshot(first.Bytes())
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
