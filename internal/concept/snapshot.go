package concept

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

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
// on read. Word lists are written trimmed, which makes the serialization a
// fixpoint: write ∘ read ∘ write produces identical bytes.
//
// The reader is hardened against corrupt or adversarial input the way the
// scanio readers are: every count is bounded before allocation, every ID
// and bit is range-checked, and failures come back as errors — never
// panics, never unbounded allocations. Bytes after the CRC trailer are
// left unread, so a snapshot can be embedded length-prefixed in a larger
// container.

const (
	snapshotMagic   = "CLTS"
	snapshotVersion = 1
	// maxSnapshotDim caps object/attribute/concept counts; it bounds every
	// allocation the reader makes before the CRC is verified.
	maxSnapshotDim = 1 << 24
)

// WriteSnapshot serializes the lattice (including its context) to w.
func WriteSnapshot(w io.Writer, l *Lattice) error {
	sp := obs.StartSpan("lattice.snapshot.write")
	defer sp.End()
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	if _, err := io.WriteString(out, snapshotMagic); err != nil {
		return err
	}
	if _, err := out.Write([]byte{snapshotVersion}); err != nil {
		return err
	}
	numObj, numAttr, n := l.ctx.NumObjects(), l.ctx.NumAttributes(), len(l.concepts)
	for _, v := range []int{numObj, numAttr, n, l.top, l.bottom} {
		if err := writeU32(out, uint32(v)); err != nil {
			return err
		}
	}
	for _, name := range l.ctx.objNames {
		if err := writeString(out, name); err != nil {
			return err
		}
	}
	for _, name := range l.ctx.attrNames {
		if err := writeString(out, name); err != nil {
			return err
		}
	}
	for _, row := range l.ctx.rows {
		if err := writeWords(out, row.Words()); err != nil {
			return err
		}
	}
	for _, c := range l.concepts {
		if err := writeWords(out, c.Intent.Words()); err != nil {
			return err
		}
		if err := writeWords(out, c.Extent.Words()); err != nil {
			return err
		}
	}
	for _, ps := range l.parents {
		if err := writeU32(out, uint32(len(ps))); err != nil {
			return err
		}
		for _, p := range ps {
			if err := writeU32(out, uint32(p)); err != nil {
				return err
			}
		}
	}
	// The trailer is the CRC of everything above; written to bw only, so it
	// does not hash itself.
	if err := writeU32(bw, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadSnapshot deserializes a lattice written by WriteSnapshot, rebuilding
// the derived state (columns, children edges, intent index, query tables)
// and validating both the CRC and every structural invariant the lattice's
// query paths rely on.
func ReadSnapshot(r io.Reader) (*Lattice, error) {
	sp := obs.StartSpan("lattice.snapshot.read")
	defer sp.End()
	sr := &snapReader{r: bufio.NewReader(r), crc: crc32.NewIEEE()}

	magic := make([]byte, len(snapshotMagic))
	if err := sr.readFull(magic); err != nil {
		return nil, fmt.Errorf("concept: snapshot: reading magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("concept: snapshot: bad magic %q", magic)
	}
	ver, err := sr.readByte()
	if err != nil {
		return nil, fmt.Errorf("concept: snapshot: reading version: %w", err)
	}
	if ver != snapshotVersion {
		return nil, fmt.Errorf("concept: snapshot: unsupported version %d", ver)
	}
	var dims [5]int
	for i := range dims {
		v, err := sr.readU32()
		if err != nil {
			return nil, fmt.Errorf("concept: snapshot: reading header: %w", err)
		}
		dims[i] = int(v)
	}
	numObj, numAttr, n, top, bottom := dims[0], dims[1], dims[2], dims[3], dims[4]
	if numObj > maxSnapshotDim || numAttr > maxSnapshotDim || n > maxSnapshotDim {
		return nil, fmt.Errorf("concept: snapshot: dimensions %d×%d×%d exceed sanity cap", numObj, numAttr, n)
	}
	if n == 0 {
		return nil, fmt.Errorf("concept: snapshot: zero concepts (a built lattice has at least the seed)")
	}
	if top >= n || bottom >= n {
		return nil, fmt.Errorf("concept: snapshot: top/bottom %d/%d out of range (%d concepts)", top, bottom, n)
	}

	// Slices sized by header counts grow by append with a bounded initial
	// capacity: a corrupt header claiming 2²⁴ objects then errors after the
	// few elements the stream physically contains, instead of allocating
	// gigabytes up front.
	ctx := &Context{
		objNames:  make([]string, 0, boundedCap(numObj)),
		attrNames: make([]string, 0, boundedCap(numAttr)),
		rows:      make([]*bitset.Set, 0, boundedCap(numObj)),
	}
	for o := 0; o < numObj; o++ {
		name, err := sr.readString()
		if err != nil {
			return nil, fmt.Errorf("concept: snapshot: object name %d: %w", o, err)
		}
		ctx.objNames = append(ctx.objNames, name)
	}
	for a := 0; a < numAttr; a++ {
		name, err := sr.readString()
		if err != nil {
			return nil, fmt.Errorf("concept: snapshot: attribute name %d: %w", a, err)
		}
		ctx.attrNames = append(ctx.attrNames, name)
	}
	var words []uint64
	for o := 0; o < numObj; o++ {
		if words, err = sr.readWords(words, numAttr); err != nil {
			return nil, fmt.Errorf("concept: snapshot: row %d: %w", o, err)
		}
		row := bitset.New(numAttr)
		row.LoadWords(words)
		ctx.rows = append(ctx.rows, row)
	}
	ctx.cols = make([]*bitset.Set, numAttr)
	for a := range ctx.cols {
		ctx.cols[a] = bitset.New(numObj)
	}
	for o, row := range ctx.rows {
		row.Range(func(a int) bool {
			ctx.cols[a].Add(o)
			return true
		})
	}

	arena := bitset.NewArena()
	l := &Lattice{ctx: ctx, arena: arena, top: top, bottom: bottom}
	l.concepts = make([]*Concept, 0, boundedCap(n))
	l.idx.initFor(boundedCap(n))
	var chunk []Concept
	for i := 0; i < n; i++ {
		if words, err = sr.readWords(words, numAttr); err != nil {
			return nil, fmt.Errorf("concept: snapshot: concept %d intent: %w", i, err)
		}
		intent := arena.Set(numAttr, numAttr)
		intent.LoadWords(words)
		if words, err = sr.readWords(words, numObj); err != nil {
			return nil, fmt.Errorf("concept: snapshot: concept %d extent: %w", i, err)
		}
		extent := arena.Set(numObj, numObj)
		extent.LoadWords(words)
		if l.idx.lookup(l.concepts, intent) >= 0 {
			return nil, fmt.Errorf("concept: snapshot: duplicate intent at concept %d", i)
		}
		if len(chunk) == cap(chunk) {
			chunk = make([]Concept, 0, 256)
		}
		chunk = chunk[:len(chunk)+1]
		h := &chunk[len(chunk)-1]
		*h = Concept{ID: i, Extent: extent, Intent: intent}
		l.concepts = append(l.concepts, h)
		l.idx.insert(l.concepts, i)
	}

	// n is physically established by now (the stream contained n concepts),
	// so per-concept tables may be allocated directly.
	l.parents = make([][]int, n)
	totalEdges := 0
	lists := make([][]uint32, n)
	for i := range lists {
		cnt, err := sr.readU32()
		if err != nil {
			return nil, fmt.Errorf("concept: snapshot: parents of %d: %w", i, err)
		}
		if int(cnt) > n {
			return nil, fmt.Errorf("concept: snapshot: concept %d claims %d parents (%d concepts)", i, cnt, n)
		}
		ids := make([]uint32, 0, boundedCap(int(cnt)))
		prev := -1
		for j := 0; j < int(cnt); j++ {
			v, err := sr.readU32()
			if err != nil {
				return nil, fmt.Errorf("concept: snapshot: parents of %d: %w", i, err)
			}
			if int(v) >= n || int(v) <= prev {
				return nil, fmt.Errorf("concept: snapshot: parent list of %d not strictly ascending in range", i)
			}
			prev = int(v)
			ids = append(ids, v)
		}
		lists[i] = ids
		totalEdges += int(cnt)
	}

	// Verify the trailer before deriving anything from the payload.
	sum := sr.crc.Sum32()
	stored, err := sr.readTrailer()
	if err != nil {
		return nil, fmt.Errorf("concept: snapshot: reading crc: %w", err)
	}
	if stored != sum {
		return nil, fmt.Errorf("concept: snapshot: crc mismatch (stored %08x, computed %08x)", stored, sum)
	}

	// Derive: edge slabs exactly as linkCovers merges them, then the
	// validated query tables.
	parentSlab := make([]int, 0, totalEdges)
	for i, ids := range lists {
		start := len(parentSlab)
		for _, v := range ids {
			parentSlab = append(parentSlab, int(v))
		}
		l.parents[i] = parentSlab[start:len(parentSlab):len(parentSlab)]
	}
	l.children = childrenOf(l.parents, totalEdges)
	if err := l.buildTables(); err != nil {
		return nil, fmt.Errorf("concept: snapshot: %w", err)
	}
	return l, nil
}

// boundedCap clamps a header-claimed count to a safe initial allocation.
func boundedCap(n int) int {
	if n > 4096 {
		return 4096
	}
	if n < 0 {
		return 0
	}
	return n
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeString(w io.Writer, s string) error {
	if len(s) > scanio.MaxLineBytes {
		return fmt.Errorf("concept: snapshot: name of %d bytes exceeds the %d-byte cap", len(s), scanio.MaxLineBytes)
	}
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func writeWords(w io.Writer, ws []uint64) error {
	if err := writeU32(w, uint32(len(ws))); err != nil {
		return err
	}
	var buf [8]byte
	for _, v := range ws {
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// snapReader reads the snapshot payload while hashing it, so the CRC check
// covers exactly the bytes consumed.
type snapReader struct {
	r   *bufio.Reader
	crc hash.Hash32
}

func (sr *snapReader) readFull(p []byte) error {
	if _, err := io.ReadFull(sr.r, p); err != nil {
		return err
	}
	_, _ = sr.crc.Write(p)
	return nil
}

func (sr *snapReader) readByte() (byte, error) {
	var b [1]byte
	if err := sr.readFull(b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

func (sr *snapReader) readU32() (uint32, error) {
	var b [4]byte
	if err := sr.readFull(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// readTrailer reads the CRC trailer, which is not part of the hashed
// payload.
func (sr *snapReader) readTrailer() (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(sr.r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (sr *snapReader) readString() (string, error) {
	n, err := sr.readU32()
	if err != nil {
		return "", err
	}
	if int(n) > scanio.MaxLineBytes {
		return "", fmt.Errorf("string of %d bytes exceeds the %d-byte cap", n, scanio.MaxLineBytes)
	}
	buf := make([]byte, n)
	if err := sr.readFull(buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// readWords reads one length-prefixed word list into buf (reused across
// calls), validating the count against the universe size and rejecting
// bits at or beyond universe.
func (sr *snapReader) readWords(buf []uint64, universe int) ([]uint64, error) {
	cnt, err := sr.readU32()
	if err != nil {
		return nil, err
	}
	if int(cnt) > wordsFor(universe) {
		return nil, fmt.Errorf("%d words exceed the %d-word universe", cnt, wordsFor(universe))
	}
	if cap(buf) < int(cnt) {
		buf = make([]uint64, cnt)
	} else {
		buf = buf[:cnt]
	}
	var b [8]byte
	for i := range buf {
		if err := sr.readFull(b[:]); err != nil {
			return nil, err
		}
		buf[i] = binary.LittleEndian.Uint64(b[:])
	}
	if r := universe % 64; r != 0 && int(cnt) == wordsFor(universe) && buf[cnt-1]>>uint(r) != 0 {
		return nil, fmt.Errorf("set bits at or beyond universe %d", universe)
	}
	return buf, nil
}
