package server

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/binio"
	"repro/internal/event"
	"repro/internal/stream"
)

const snapv1 = "testdata/snapv1/908d0724d6f7de1f4fca14f546b9aa74"

func readSnapV1(t testing.TB, ext string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.FromSlash(snapv1 + ext))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encodeWAL renders a log holding the given actions, as the server writes
// it: the header, then one record per action.
func encodeWAL(actions []walAction) []byte {
	out := append([]byte(walMagic), persistVer)
	for _, a := range actions {
		switch a.typ {
		case walTypeLbl:
			out = append(out, walLabelRecord(a.key, a.label)...)
		case walTypeAdd:
			w := beginRecord(walTypeAdd, 4+len(a.text))
			w.Str(a.text)
			out = append(out, endRecord(w)...)
		case walTypeStream:
			out = append(out, walStreamRecord(a.streamID, a.streamSpec, a.streamClosed, a.streamState)...)
		}
	}
	return out
}

// TestVersion1FilesReencode decodes testdata/snapv1's snapshot and log and
// requires the encoders to reproduce both byte for byte.
func TestVersion1FilesReencode(t *testing.T) {
	snap := readSnapV1(t, ".snap")
	sd, err := parseSnap(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := sd.encode(); !bytes.Equal(got, snap) {
		t.Fatalf("re-encoded snapshot differs: %d bytes, file has %d", len(got), len(snap))
	}
	wal := readSnapV1(t, ".wal")
	actions, valid := parseWAL(wal)
	if len(actions) != 6 || valid != len(wal) {
		t.Fatalf("parsed %d WAL records ending at byte %d, want 6 ending at %d", len(actions), valid, len(wal))
	}
	if got := encodeWAL(actions); !bytes.Equal(got, wal) {
		t.Fatalf("re-encoded WAL differs: %d bytes, file has %d", len(got), len(wal))
	}
}

// TestSessionSnapshotRejectsCorruption: every strict prefix and every
// single-bit flip of a valid session snapshot fails, and each failure is
// typed — truncated input (io.ErrUnexpectedEOF) or a checksum mismatch.
func TestSessionSnapshotRejectsCorruption(t *testing.T) {
	snap := readSnapV1(t, ".snap")
	typed := func(err error) bool {
		return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, binio.ErrChecksum)
	}
	for cut := 0; cut < len(snap); cut++ {
		if _, err := parseSnap(snap[:cut]); !typed(err) {
			t.Fatalf("truncation to %d bytes: err = %v, want a truncation or checksum error", cut, err)
		}
	}
	for bit := 0; bit < 8*len(snap); bit++ {
		mut := append([]byte(nil), snap...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := parseSnap(mut); !typed(err) {
			t.Fatalf("flip of bit %d: err = %v, want a truncation or checksum error", bit, err)
		}
	}
}

// TestWALRecordAllocs pins the WAL encoders at one allocation per record:
// each record is built in one presized buffer, ring events included.
func TestWALRecordAllocs(t *testing.T) {
	st := stream.State{Window: 32, Events: 100, Frontier: []int{0, 3}}
	for i := 0; i < 32; i++ {
		st.Ring = append(st.Ring, event.Event{Op: "fread", Def: "Y", Uses: []string{"X", "Z"}})
	}
	if n := testing.AllocsPerRun(100, func() { walStreamRecord("stream-id", "", false, st) }); n > 1 {
		t.Errorf("walStreamRecord with a 32-event ring: %.1f allocs, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { walLabelRecord("X = popen(); pclose(X)", "bad") }); n > 1 {
		t.Errorf("walLabelRecord: %.1f allocs, want at most 1", n)
	}
}

// FuzzSessionSnapshot feeds arbitrary bytes to parseSnap: it must never
// panic, and whatever it accepts must re-encode to the same bytes.
func FuzzSessionSnapshot(f *testing.F) {
	f.Add(readSnapV1(f, ".snap"))
	f.Add([]byte(snapMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		sd, err := parseSnap(data)
		if err != nil {
			return
		}
		if got := sd.encode(); !bytes.Equal(got, data) {
			t.Fatalf("accepted snapshot re-encodes differently:\n got %q\nwant %q", got, data)
		}
	})
}

// FuzzWAL feeds arbitrary bytes to parseWAL: it must never panic, and the
// records it accepts must re-encode to exactly the valid prefix it
// reports, which the loader keeps when it cuts a torn tail off.
func FuzzWAL(f *testing.F) {
	wal := readSnapV1(f, ".wal")
	f.Add(wal)
	f.Add(wal[:len(wal)-3])
	f.Add([]byte(walMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		actions, valid := parseWAL(data)
		if valid == 0 {
			if actions != nil {
				t.Fatalf("%d records accepted behind a rejected header", len(actions))
			}
			return
		}
		if got := encodeWAL(actions); !bytes.Equal(got, data[:valid]) {
			t.Fatalf("accepted records re-encode to %q, not the %d-byte valid prefix of %q", got, valid, data)
		}
	})
}
