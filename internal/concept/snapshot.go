package concept

import (
	"context"
	"fmt"
	"io"
	"slices"

	"repro/internal/binio"
	"repro/internal/bitset"
	"repro/internal/obs"
	"repro/internal/scanio"
)

// Versioned binary snapshot codec for lattices, so cabled restarts warm
// instead of rebuilding every session's lattice from its trace corpus.
//
// Container layout (all integers little-endian; see FORMATS.md):
//
//	"CLTS" | u8 version
//	u32 numObjects | u32 numAttributes | u32 numConcepts | u32 top | u32 bottom
//	numObjects × name    (u32 len | bytes)
//	numAttributes × name (u32 len | bytes)
//	numObjects × row     (u32 nwords | nwords × u64)   — trimmed words
//	numConcepts × { intent: u32 nwords | words ; extent: u32 nwords | words }
//	numConcepts × { u32 nparents | nparents × u32 }    — strictly ascending IDs
//	u32 crc32 (IEEE) over every preceding byte
//
// Only primary state is serialized: attribute columns, children edges, the
// intent index, and the γ/μ query tables are all derived (and validated)
// on read, and the concepts, covers and top/bottom must be those of the
// lattice of the stored context. Word lists are written trimmed, which
// makes the serialization a fixpoint: write ∘ read ∘ write produces
// identical bytes.
//
// The reader takes the snapshot's exact bytes and checks the CRC before it
// decodes anything. It is hardened against adversarial input with a valid
// CRC the way the scanio readers are: every count is bounded by the bytes
// left before allocation (binio.Reader.Count), every ID and bit is
// range-checked, and failures come back as errors — never panics.

const (
	snapshotMagic   = "CLTS"
	snapshotVersion = 1
	// maxSnapshotDim caps object/attribute/concept counts.
	maxSnapshotDim = 1 << 24
)

// WriteSnapshot serializes the lattice (including its context) to w.
func WriteSnapshot(w io.Writer, l *Lattice) error {
	b, err := AppendSnapshot(nil, l)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// AppendSnapshot appends the lattice's snapshot bytes, as WriteSnapshot
// writes them, to dst.
func AppendSnapshot(dst []byte, l *Lattice) ([]byte, error) {
	sp := obs.StartSpan("lattice.snapshot.write")
	defer sp.End()
	w := binio.Writer(dst)
	w = append(w, snapshotMagic...)
	w.U8(snapshotVersion)
	for _, v := range [...]int{l.ctx.NumObjects(), l.ctx.NumAttributes(), len(l.concepts), l.top, l.bottom} {
		w.U32(uint32(v))
	}
	for _, names := range [][]string{l.ctx.objNames, l.ctx.attrNames} {
		for _, name := range names {
			if len(name) > scanio.MaxLineBytes {
				return dst, fmt.Errorf("concept: snapshot: name of %d bytes exceeds the %d-byte cap", len(name), scanio.MaxLineBytes)
			}
			w.Str(name)
		}
	}
	for _, row := range l.ctx.rows {
		w.Words(row.Words())
	}
	for _, c := range l.concepts {
		w.Words(c.Intent.Words())
		w.Words(c.Extent.Words())
	}
	for _, ps := range l.parents {
		w.U32(uint32(len(ps)))
		for _, p := range ps {
			w.U32(uint32(p))
		}
	}
	w.Seal(len(dst))
	return w, nil
}

// ReadSnapshot deserializes a lattice from the exact bytes WriteSnapshot
// wrote, rebuilding the derived state (columns, children edges, intent
// index, query tables), validating the CRC and every structural invariant
// the lattice's query paths rely on, and accepting only the concept
// lattice of the stored context, in any concept numbering. Truncated input
// fails with an error wrapping io.ErrUnexpectedEOF and a corrupt one with
// binio.ErrChecksum.
func ReadSnapshot(data []byte) (*Lattice, error) {
	sp := obs.StartSpan("lattice.snapshot.read")
	defer sp.End()
	payload, err := binio.Unseal(data)
	if err != nil {
		return nil, fmt.Errorf("concept: snapshot: %w", err)
	}
	r := binio.NewReader(payload)
	magic, ver := r.Bytes(len(snapshotMagic)), r.U8()
	// Each object takes a name and a row, each attribute a name, each
	// concept an intent, an extent and a parent list: at least 8, 4 and
	// 12 bytes.
	numObj, numAttr, n := r.Count(8, maxSnapshotDim), r.Count(4, maxSnapshotDim), r.Count(12, maxSnapshotDim)
	top, bottom := int(r.U32()), int(r.U32())
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("concept: snapshot: header: %w", r.Err())
	case string(magic) != snapshotMagic:
		return nil, fmt.Errorf("concept: snapshot: bad magic %q", magic)
	case ver != snapshotVersion:
		return nil, fmt.Errorf("concept: snapshot: unsupported version %d", ver)
	case n == 0:
		return nil, fmt.Errorf("concept: snapshot: zero concepts (a built lattice has at least the seed)")
	case top >= n || bottom >= n:
		return nil, fmt.Errorf("concept: snapshot: top/bottom %d/%d out of range (%d concepts)", top, bottom, n)
	}

	names := make([]string, numObj+numAttr)
	for i := range names {
		names[i] = r.Str(scanio.MaxLineBytes)
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("concept: snapshot: names: %w", r.Err())
	}
	ctx := NewContext(names[:numObj], names[numObj:])
	var words []uint64
	for o, row := range ctx.rows {
		if words = r.Words(words, numAttr); r.Err() != nil {
			return nil, fmt.Errorf("concept: snapshot: row %d: %w", o, r.Err())
		}
		row.LoadWords(words)
		row.Range(func(a int) bool {
			ctx.cols[a].Add(o)
			return true
		})
	}

	arena := bitset.NewArena()
	l := &Lattice{ctx: ctx, arena: arena}
	headers := make([]Concept, n)
	l.concepts = make([]*Concept, n)
	l.idx.initFor(n)
	for i := range headers {
		intent, extent := arena.Set(numAttr, numAttr), arena.Set(numObj, numObj)
		words = r.Words(words, numAttr)
		intent.LoadWords(words)
		words = r.Words(words, numObj)
		extent.LoadWords(words)
		if r.Err() != nil {
			return nil, fmt.Errorf("concept: snapshot: concept %d: %w", i, r.Err())
		}
		if l.idx.lookup(l.concepts, intent) >= 0 {
			return nil, fmt.Errorf("concept: snapshot: duplicate intent at concept %d", i)
		}
		headers[i] = Concept{ID: i, Extent: extent, Intent: intent}
		l.concepts[i] = &headers[i]
		l.idx.insert(l.concepts, i)
	}

	// The parent lists are the rest of the payload, so its length sizes
	// their slab exactly.
	stored := make([][]int, n)
	edges := make([]int, 0, max(0, r.Len()/4-n))
	for i := range stored {
		// Count leaves at least 4·cnt bytes, so these reads cannot fail.
		cnt, start, prev := r.Count(4, n), len(edges), -1
		for j := 0; j < cnt; j++ {
			v := int(r.U32())
			if v >= n || v <= prev {
				return nil, fmt.Errorf("concept: snapshot: parent list of %d not strictly ascending in range", i)
			}
			prev = v
			edges = append(edges, v)
		}
		stored[i] = edges[start:len(edges):len(edges)]
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("concept: snapshot: parents: %w", r.Err())
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("concept: snapshot: %d trailing bytes", r.Len())
	}
	if err := l.checkOwnLattice(stored, top, bottom); err != nil {
		return nil, fmt.Errorf("concept: snapshot: %w", err)
	}
	return l, nil
}

// checkOwnLattice reports an error unless l, as decoded, is the concept
// lattice of its own context with the given parent lists, top and bottom,
// which it then holds. It checks with the build's own code: BuildCtx's
// loop over the context's distinct rows must find exactly l's intents,
// with l's extents, and linkCovers the stored covers and top/bottom. So
// every extent is τ of its intent and every intent σ of its extent, the
// full attribute set is an intent, and every intent meets every row in an
// intent. The loop stops once it holds more concepts than l, which bounds
// its work by the input.
func (l *Lattice) checkOwnLattice(stored [][]int, top, bottom int) error {
	if err := l.buildTables(); err != nil {
		return err
	}
	n := len(l.concepts)
	own, g := newGodinLattice(l.ctx)
	l.repsEnsure()
	for _, rep := range l.reps {
		if own.godinInsert(l.ctx.Attributes(int(rep)), g); own.Len() > n {
			return fmt.Errorf("the context has more than %d concepts", n)
		}
	}
	if own.Len() < n {
		return fmt.Errorf("%d concepts, the context has %d", n, own.Len())
	}
	for _, c := range own.concepts {
		id := l.idx.lookup(l.concepts, c.Intent)
		if id < 0 {
			return fmt.Errorf("no concept has the context's intent %s", c.Intent)
		}
		if !l.concepts[id].Extent.Equal(c.Extent) {
			return fmt.Errorf("extent of concept %d is not τ of its intent", id)
		}
	}
	if err := l.linkCovers(context.Background()); err != nil {
		return err
	}
	for i, ps := range stored {
		if !slices.Equal(ps, l.parents[i]) {
			return fmt.Errorf("parents of concept %d are not its covers", i)
		}
	}
	if top != l.top || bottom != l.bottom {
		return fmt.Errorf("top/bottom %d/%d, the covers give %d/%d", top, bottom, l.top, l.bottom)
	}
	return nil
}
