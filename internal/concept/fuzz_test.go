package concept

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitset"
)

// FuzzConceptIO mirrors trace.FuzzTraceRoundTrip for the Burmeister
// context format: anything ReadContext accepts must write and reparse to
// the same context — dimensions, names, and the full relation — and the
// serialization must be a fixpoint. Seeds cover the optional name line,
// the optional blank separator, lower-case cells, empty dimensions, and
// a name line ending in carriage returns.
func FuzzConceptIO(f *testing.F) {
	for _, seed := range []string{
		"B\nnamed\n2\n2\n\no1\no2\na1\na2\nX.\n.X\n",
		"B\n1\n1\no\na\nX\n",            // no name line, no blank separator
		"B\nk\n2\n1\no1\no2\na\nx\n.\n", // lower-case cell
		"B\nempty\n0\n0\n\n",
		"B\nwide\n1\n3\no\np\nq\nr\nX.X\n",
		"B\n0\n1\n0\r\r\n00000", // attribute name line ending in two carriage returns
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, name, err := ReadContext(strings.NewReader(s))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteContext(&buf, c, name); err != nil {
			// Names with embedded newlines cannot come out of ReadContext
			// (it is line-oriented), so Write must succeed.
			t.Fatalf("WriteContext of parsed context failed: %v", err)
		}
		first := buf.String()
		again, name2, err := ReadContext(strings.NewReader(first))
		if err != nil {
			t.Fatalf("round trip does not reparse: %v\n%s", err, first)
		}
		if name2 != name && !(name == "" && strings.TrimSpace(name2) == "") {
			t.Fatalf("name changed: %q -> %q", name, name2)
		}
		if again.NumObjects() != c.NumObjects() || again.NumAttributes() != c.NumAttributes() {
			t.Fatalf("round trip changed dimensions: %dx%d -> %dx%d",
				c.NumObjects(), c.NumAttributes(), again.NumObjects(), again.NumAttributes())
		}
		for o := 0; o < c.NumObjects(); o++ {
			for a := 0; a < c.NumAttributes(); a++ {
				if c.Has(o, a) != again.Has(o, a) {
					t.Fatalf("relation changed at (%d,%d)", o, a)
				}
			}
		}
		var buf2 bytes.Buffer
		if err := WriteContext(&buf2, again, name2); err != nil {
			t.Fatalf("WriteContext of reparsed context failed: %v", err)
		}
		if buf2.String() != first {
			t.Fatalf("serialization is not a fixpoint:\n%s\nvs\n%s", first, buf2.String())
		}
	})
}

// FuzzBuildMatchesOracle pins the Godin loop to its full-scan oracle on
// contexts decoded from the input: at most 16 objects over 1–80
// attributes, so both the one-word scan and the Set scan run, and each row
// fresh, a repeat of an earlier row, or the intersection of two earlier
// rows — the rows the loop skips as intents it already holds. Build must
// write the snapshot bytes of buildLegacy, its covers must be those of the
// all-pairs oracle (buildLegacy links them through the code under test),
// and a build over a prefix of the objects grown by AddObjectCtx over the
// rest must equal Build of the whole. The last seed adds rows that lie in
// no earlier row, so the bottom is the generator of their concepts.
func FuzzBuildMatchesOracle(f *testing.F) {
	f.Add([]byte{9, 5, 2, 0, 0x0f, 0x01, 0, 0xf0, 0x03, 2, 0, 1, 1, 2, 0, 0x33})
	f.Add([]byte{69, 6, 3, 0, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x0f, 0, 0x0f, 0xf0, 0, 0, 0, 0, 0, 0, 0x3f, 2, 0, 1, 1, 0, 2, 1, 2})
	f.Add([]byte{79, 16, 8})
	f.Add([]byte{7, 3, 1, 0, 0x03, 0, 0x0c, 0, 0x30})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		numAttr, numObj := 1+next()%80, next()%17
		prefix := next() % (numObj + 1)
		rows := make([]*bitset.Set, numObj)
		for o := range rows {
			switch kind := next() % 3; {
			case kind == 1 && o > 0:
				rows[o] = rows[next()%o].Clone()
			case kind == 2 && o > 0:
				rows[o] = bitset.Intersect(rows[next()%o], rows[next()%o])
			default:
				rows[o] = bitset.New(numAttr)
				for a := 0; a < numAttr; a += 8 {
					for b, bits := 0, next(); b < 8 && a+b < numAttr; b++ {
						if bits&(1<<b) != 0 {
							rows[o].Add(a + b)
						}
					}
				}
			}
		}
		ctxOf := func(n int) *Context { return contextOfRows(numAttr, rows[:n]) }
		whole := Build(ctxOf(numObj))
		if !bytes.Equal(snapshotBytes(t, whole), snapshotBytes(t, buildLegacy(ctxOf(numObj)))) {
			t.Fatalf("Build differs from the full-scan oracle on\n%s", whole.Context())
		}
		parents, children := linkCoversAllPairs(whole)
		for id := range whole.concepts {
			insertionSortInts(parents[id])
			insertionSortInts(children[id])
			if !equalInts(whole.Parents(id), parents[id]) || !equalInts(whole.Children(id), children[id]) {
				t.Fatalf("covers of %d: parents %v children %v, all-pairs %v %v on\n%s",
					id, whole.Parents(id), whole.Children(id), parents[id], children[id], whole.Context())
			}
		}
		grown := Build(ctxOf(prefix))
		for o := prefix; o < numObj; o++ {
			if err := grown.AddObjectCtx(context.Background(), fmt.Sprintf("o%d", o), rows[o]); err != nil {
				t.Fatal(err)
			}
		}
		requireByteIdentical(t, grown, whole, fmt.Sprintf("build of %d objects grown to %d", prefix, numObj))
	})
}
