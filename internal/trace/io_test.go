package trace

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/scanio"
)

// eventLineOfLength builds a parseable event line (indentation included)
// of exactly n bytes: "  vvv...v = op()".
func eventLineOfLength(n int) string {
	const overhead = len("  ") + len(" = op()")
	return "  " + strings.Repeat("v", n-overhead) + " = op()"
}

func TestReadMaxLengthEventLine(t *testing.T) {
	// The longest line bufio.Scanner can return under a max token size of
	// MaxLineBytes is MaxLineBytes-1 bytes; that line must parse.
	line := eventLineOfLength(scanio.MaxLineBytes - 1)
	input := "trace a\n" + line + "\nend\n"
	set, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatalf("Read at limit: %v", err)
	}
	if set.Total() != 1 || len(set.Class(0).Rep.Events) != 1 {
		t.Fatalf("unexpected shape: %d traces", set.Total())
	}
	// And it must survive the round trip (Write re-adds the indentation).
	var buf bytes.Buffer
	if err := Write(&buf, set); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("reparse at limit: %v", err)
	}
}

func TestReadOverlongLineError(t *testing.T) {
	line := eventLineOfLength(scanio.MaxLineBytes)
	input := "trace a\n" + line + "\nend\n"
	_, err := Read(strings.NewReader(input))
	if err == nil {
		t.Fatal("Read accepted a line over the scanner limit")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("err = %v, want wrapped bufio.ErrTooLong", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "trace: line 2:") {
		t.Errorf("error lacks file position: %q", msg)
	}
	if !strings.Contains(msg, "4194304-byte limit") {
		t.Errorf("error does not spell out the limit: %q", msg)
	}
}

// Read shares parsed events between classes and cuts every class's events
// from one slab. Growing or re-slicing one representative's events must
// never show through in another class.
func TestReadClassesDoNotShareCapacity(t *testing.T) {
	in := "trace a\n  X = open()\n  use(X)\nend\n" +
		"trace b\n  X = open()\nend\n" +
		"trace c\n  X = open()\n  use(X)\n  close(X)\nend\n" +
		"trace d\nend\n" +
		"trace e\n  use(X)\nend\n"
	set, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, set.NumClasses())
	for i := range keys {
		keys[i] = set.Class(i).Rep.Key()
	}
	junk := event.MustParse("J = junk(J)")
	for i := 0; i < set.NumClasses(); i++ {
		evs := set.Class(i).Rep.Events
		_ = append(evs, junk, junk)
		full := evs[:cap(evs)]
		for j := len(evs); j < len(full); j++ {
			full[j] = junk
		}
		for k := range keys {
			if got := set.Class(k).Rep.Key(); got != keys[k] {
				t.Fatalf("growing class %d changed class %d from %q to %q", i, k, keys[k], got)
			}
		}
		if cap(evs) != len(evs) {
			t.Fatalf("class %d: events have capacity %d beyond their length %d", i, cap(evs), len(evs))
		}
	}
}

// Write renders records with AppendString instead of fmt; its bytes must
// stay exactly those of the fmt-based writer.
func TestWriteMatchesOracle(t *testing.T) {
	bulk, err := Read(bytes.NewReader(bulkShapedText(t)))
	if err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]*Set{
		"bulk":  bulk,
		"empty": {},
		"mixed": NewSet(
			tr("", "X = fopen()", "Y = XCreateGC(D, W)"),
			tr("b"),
			tr("c", "trace = open()", "use(trace)"),
			tr("", "X = fopen()", "Y = XCreateGC(D, W)"),
			New("long", event.Call(strings.Repeat("f", 5000), strings.Repeat("x", 5000))),
		),
	} {
		var got, want bytes.Buffer
		if err := Write(&got, set); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := oracleWrite(&want, set); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Write emitted\n%q\nthe fmt writer\n%q", name, got.Bytes(), want.Bytes())
		}
	}
}

// Read allocates in proportion to what the set keeps: its slabs, tables
// and one text and use list per distinct event line, not an object per
// record or class. The bulk-shaped corpus (1000 classes in 1,148 records)
// took 2,312 allocations when every key and ID was a string of its own,
// and the four-trace batch 71; now they take 129 and 34.
func TestReadAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		text []byte
		max  float64
	}{
		{"bulk-shaped corpus", bulkShapedText(t), 150},
		{"four-trace batch", batchText(t), 40},
	} {
		n := testing.AllocsPerRun(20, func() {
			if _, err := Read(bytes.NewReader(c.text)); err != nil {
				t.Fatal(err)
			}
		})
		if n > c.max {
			t.Errorf("reading the %s took %.0f allocations, want at most %.0f", c.name, n, c.max)
		}
	}
}
