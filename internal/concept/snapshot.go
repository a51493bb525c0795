package concept

import (
	"io"

	"repro/internal/binio"
	"repro/internal/obs"
)

// Versioned binary dump of a lattice: a canonical byte rendering of its
// context, concepts and covers, which the goldens and the byte-equality
// oracles compare. Nothing reads it back; a lattice is always built from
// its context.
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
// Only primary state is written: attribute columns, children edges, the
// intent index, and the γ/μ query tables are all derived. Word lists are
// written trimmed, so structurally equal lattices write equal bytes.

const (
	snapshotMagic   = "CLTS"
	snapshotVersion = 1
)

// WriteSnapshot serializes the lattice (including its context) to w.
func WriteSnapshot(w io.Writer, l *Lattice) error {
	sp := obs.StartSpan("lattice.snapshot.write")
	defer sp.End()
	var b binio.Writer
	b = append(b, snapshotMagic...)
	b.U8(snapshotVersion)
	for _, v := range [...]int{l.ctx.NumObjects(), l.ctx.NumAttributes(), len(l.concepts), l.top, l.bottom} {
		b.U32(uint32(v))
	}
	for _, names := range [][]string{l.ctx.objNames, l.ctx.attrNames} {
		for _, name := range names {
			b.Str(name)
		}
	}
	for _, row := range l.ctx.rows {
		b.Words(row.Words())
	}
	for _, c := range l.concepts {
		b.Words(c.Intent.Words())
		b.Words(c.Extent.Words())
	}
	for _, ps := range l.parents {
		b.U32(uint32(len(ps)))
		for _, p := range ps {
			b.U32(uint32(p))
		}
	}
	b.Seal(0)
	_, err := w.Write(b)
	return err
}
