package scanio

import (
	"bufio"
	"errors"
	"runtime"
	"strings"
	"testing"
)

func TestScannerUnderLimit(t *testing.T) {
	long := strings.Repeat("a", MaxLineBytes-1)
	sc := NewScanner(strings.NewReader(long + "\n"))
	if !sc.Scan() {
		t.Fatalf("scan failed on line just under limit: %v", sc.Err())
	}
	if len(sc.Text()) != MaxLineBytes-1 {
		t.Errorf("got %d bytes", len(sc.Text()))
	}
	if sc.Err() != nil {
		t.Errorf("unexpected error: %v", sc.Err())
	}
}

func TestScannerOverLimit(t *testing.T) {
	long := strings.Repeat("a", MaxLineBytes+1)
	sc := NewScanner(strings.NewReader(long + "\n"))
	for sc.Scan() {
	}
	if !errors.Is(sc.Err(), bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", sc.Err())
	}
	wrapped := LineError("trace", 1, sc.Err())
	if !strings.Contains(wrapped.Error(), "trace: line 1:") {
		t.Errorf("wrapped = %q, missing subsystem/line prefix", wrapped)
	}
	if !strings.Contains(wrapped.Error(), "4194304-byte limit") {
		t.Errorf("wrapped = %q, limit not spelled out", wrapped)
	}
	if !errors.Is(wrapped, bufio.ErrTooLong) {
		t.Error("wrapped error lost the bufio.ErrTooLong cause")
	}
}

func TestLineErrorNil(t *testing.T) {
	if LineError("x", 3, nil) != nil {
		t.Error("LineError(nil) != nil")
	}
}

func TestLineErrorGeneric(t *testing.T) {
	cause := errors.New("disk on fire")
	got := LineError("fa", 12, cause)
	if got.Error() != "fa: line 12: disk on fire" {
		t.Errorf("got %q", got)
	}
	if !errors.Is(got, cause) {
		t.Error("cause not wrapped")
	}
}

// A short input must not pay for a large first buffer: scanning a few
// lines allocates under 8 KiB (bufio's 4 KiB start plus the scanner and
// reader), where a 64 KiB first buffer would show.
func TestScannerSmallInputAllocatesLittle(t *testing.T) {
	const runs = 100
	in := "trace a\n  X = fopen()\n  fclose(X)\nend\n"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sc := NewScanner(strings.NewReader(in))
		for sc.Scan() {
		}
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 8<<10 {
		t.Fatalf("scanning %d bytes allocated %d bytes, want under 8 KiB", len(in), per)
	}
}
