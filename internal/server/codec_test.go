package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/binio"
	"repro/internal/concept"
	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/server/apiv1"
	"repro/internal/stream"
	"repro/internal/trace"
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

// encode renders the .snap file of sd's fields in the current version,
// CRC trailer included: the reference for the bytes writeSnap renders in
// place (TestSnapshotBytesMatchEncode).
func (sd *snapData) encode() []byte {
	size := len(snapMagic) + 1 + 12 + len(sd.id) + len(sd.traces) + len(sd.ref) + 4 + 4
	for _, l := range sd.labels {
		size += 4 + len(l)
	}
	w := make(binio.Writer, 0, size)
	w = append(w, snapMagic...)
	w.U8(snapVer)
	w.Str(sd.id)
	w.Str(sd.traces)
	w.Str(sd.ref)
	w.U32(uint32(len(sd.labels)))
	for _, l := range sd.labels {
		w.Str(string(l))
	}
	w.Seal(0)
	return w
}

// TestSnapshotBytesMatchEncode holds the snapshots writeSnap renders in
// place to encode of the same fields, each text rendered on its own: a
// fresh session's (written by its create), a labeled one's, one's after
// adds, one's after a focus merge (written by the end of the focus) and a
// bulk-shaped corpus's (written by its create).
func TestSnapshotBytesMatchEncode(t *testing.T) {
	srv, c := newTestServer(t, Config{SnapshotDir: t.TempDir()})
	fx := violationFixture(t)
	check := func(name, sid string, snapshot bool) {
		t.Helper()
		res, ok := srv.store.resolve(sid)
		if !ok {
			t.Fatalf("%s: no session %s", name, sid)
		}
		e := res.entry
		e.mu.Lock()
		defer e.mu.Unlock()
		if snapshot {
			if err := srv.persist.writeSnap(e); err != nil {
				t.Fatal(err)
			}
		}
		var traces, ref strings.Builder
		if err := trace.Write(&traces, e.session.Set()); err != nil {
			t.Fatal(err)
		}
		if err := fa.Write(&ref, e.session.Ref()); err != nil {
			t.Fatal(err)
		}
		sd := snapData{id: sid, traces: traces.String(), ref: ref.String(), labels: e.session.Labels()}
		got, err := os.ReadFile(srv.persist.snapPath(sid))
		if err != nil {
			t.Fatal(err)
		}
		if want := sd.encode(); !bytes.Equal(got, want) {
			t.Fatalf("%s: the snapshot's %d bytes differ from the %d encode makes of its fields", name, len(got), len(want))
		}
	}

	check("fresh", c.mustCreate(fx).SessionID, false)

	labeled := c.mustCreate(fx)
	zero := 0
	for _, req := range []apiv1.LabelRequest{
		{Trace: &zero, Label: "bad"},
		{Concept: &labeled.Top, Selector: &apiv1.Selector{Mode: "unlabeled"}, Label: "good"},
	} {
		if code := c.do("POST", "/v1/sessions/"+labeled.SessionID+"/label", req, nil); code != http.StatusOK {
			t.Fatalf("label: status %d", code)
		}
	}
	check("labeled", labeled.SessionID, true)

	grown := c.mustCreate(fx).SessionID
	c.addTraces(grown, trace.NewSet(
		trace.ParseEvents("v7", "X = popen()", "pclose(X)"),
		trace.ParseEvents("v8", "X = fopen()", "fwrite(X)", "pclose(X)"),
		trace.ParseEvents("v9", "X = fopen()", "fwrite(X)", "pclose(X)"),
	))
	check("after adds", grown, true)

	merged := c.mustCreate(fx)
	var focus apiv1.FocusResponse
	if code := c.do("POST", "/v1/sessions/"+merged.SessionID+"/focus", apiv1.FocusRequest{Concept: merged.Top, RefFA: fx.RefFA}, &focus); code != http.StatusCreated {
		t.Fatalf("focus: status %d", code)
	}
	fTop := findTop(t, c, focus.SessionID)
	if code := c.do("POST", "/v1/sessions/"+focus.SessionID+"/label", apiv1.LabelRequest{Concept: &fTop, Label: "good"}, nil); code != http.StatusOK {
		t.Fatalf("label in focus: status %d", code)
	}
	if code := c.do("POST", "/v1/sessions/"+focus.SessionID+"/end", nil, nil); code != http.StatusOK {
		t.Fatalf("end focus: status %d", code)
	}
	check("after a focus merge", merged.SessionID, false)

	var bulk apiv1.CreateSessionResponse
	if code := c.do("POST", "/v1/sessions", rawBody(createBodies(t)[1].body), &bulk); code != http.StatusCreated {
		t.Fatalf("bulk create: status %d", code)
	}
	check("bulk-shaped", bulk.SessionID, false)
}

// encodeWAL renders a log holding the given actions, as the server writes
// it: the header, then one record per action.
func encodeWAL(actions []walAction) []byte {
	out := append([]byte(walMagic), walVer)
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

// latticeFieldAt returns the offset of a version 1 snapshot's lattice
// field, which follows the labels: the length of the fields before it,
// as the version 2 encoding of its fields has them before its CRC.
func latticeFieldAt(sd snapData) int { return len(sd.encode()) - 4 }

// TestVersion1FilesReencode decodes testdata/snapv1's snapshot and log.
// The log re-encodes byte for byte. The snapshot re-encodes as version 2:
// the version 1 bytes up to the end of the labels, with version byte 2,
// then a CRC. The version 1 lattice field skipped there is a u64 length
// and that many bytes of lattice dump, and the dump is the lattice a
// restore builds from the stored traces and reference FA.
func TestVersion1FilesReencode(t *testing.T) {
	snap := readSnapV1(t, ".snap")
	sd, err := parseSnap(snap)
	if err != nil {
		t.Fatal(err)
	}
	v2, at := sd.encode(), latticeFieldAt(sd)
	want := append([]byte(nil), snap[:at]...)
	want[len(snapMagic)] = snapVer
	if body, err := binio.Unseal(v2); err != nil || !bytes.Equal(body, want) {
		t.Fatalf("version 2 encoding: %v; its %d bytes before the CRC differ from the version 1 fields", err, len(body))
	}
	dump := snap[at+8 : len(snap)-4]
	if n := binary.LittleEndian.Uint64(snap[at:]); n != uint64(len(dump)) {
		t.Fatalf("the lattice field's length is %d, its dump %d bytes", n, len(dump))
	}
	if again, err := parseSnap(v2); err != nil || !reflect.DeepEqual(again, sd) {
		t.Fatalf("version 2 encoding parses to %+v, %v; want %+v", again, err, sd)
	}
	set, err := trace.Read(strings.NewReader(sd.traces))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fa.Read(strings.NewReader(sd.ref))
	if err != nil {
		t.Fatal(err)
	}
	l, err := concept.BuildFromTraces(set.Representatives(), ref)
	if err != nil {
		t.Fatal(err)
	}
	var built bytes.Buffer
	if err := concept.WriteSnapshot(&built, l); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built.Bytes(), dump) {
		t.Fatal("the stored lattice dump is not the lattice built from the stored traces and reference FA")
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
// single-bit flip of a valid session snapshot, in version 1 and in
// version 2, fails, and each failure is typed — truncated input
// (io.ErrUnexpectedEOF) or a checksum mismatch.
func TestSessionSnapshotRejectsCorruption(t *testing.T) {
	v1 := readSnapV1(t, ".snap")
	sd, err := parseSnap(v1)
	if err != nil {
		t.Fatal(err)
	}
	typed := func(err error) bool {
		return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, binio.ErrChecksum)
	}
	for _, snap := range [][]byte{v1, sd.encode()} {
		ver := snap[len(snapMagic)]
		for cut := 0; cut < len(snap); cut++ {
			if _, err := parseSnap(snap[:cut]); !typed(err) {
				t.Fatalf("version %d, truncation to %d bytes: err = %v, want a truncation or checksum error", ver, cut, err)
			}
		}
		for bit := 0; bit < 8*len(snap); bit++ {
			mut := append([]byte(nil), snap...)
			mut[bit/8] ^= 1 << (bit % 8)
			if _, err := parseSnap(mut); !typed(err) {
				t.Fatalf("version %d, flip of bit %d: err = %v, want a truncation or checksum error", ver, bit, err)
			}
		}
	}
}

// TestWALRecordAllocs pins the WAL encoders at one allocation per record:
// each record is built in one presized buffer, ring events and trace text
// included. An add record is the one encodeWAL makes of its trace's text.
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
	tr := trace.ParseEvents("v8", "X = fopen()", "Y = fdopen(X, Z)", "fwrite(Y)", "pclose(X)")
	if n := testing.AllocsPerRun(100, func() { _, _ = walAddRecord(tr) }); n > 1 {
		t.Errorf("walAddRecord: %.1f allocs, want at most 1", n)
	}
	var text strings.Builder
	if err := trace.WriteTrace(&text, tr); err != nil {
		t.Fatal(err)
	}
	rec, err := walAddRecord(tr)
	if want := encodeWAL([]walAction{{typ: walTypeAdd, text: text.String()}})[len(walMagic)+1:]; err != nil || !bytes.Equal(rec, want) {
		t.Errorf("walAddRecord = %q, %v; want %q", rec, err, want)
	}
}

// FuzzSessionSnapshot feeds arbitrary bytes to parseSnap: it must never
// panic, a version 2 input it accepts must re-encode to the same bytes,
// and the encoding of any input it accepts must parse back to the same
// fields.
func FuzzSessionSnapshot(f *testing.F) {
	v1 := readSnapV1(f, ".snap")
	sd, err := parseSnap(v1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Add(sd.encode())
	f.Add([]byte(snapMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		sd, err := parseSnap(data)
		if err != nil {
			return
		}
		enc := sd.encode()
		if data[len(snapMagic)] == snapVer && !bytes.Equal(enc, data) {
			t.Fatalf("accepted snapshot re-encodes differently:\n got %q\nwant %q", enc, data)
		}
		if again, err := parseSnap(enc); err != nil || !reflect.DeepEqual(again, sd) {
			t.Fatalf("encoding of an accepted snapshot parses to %+v, %v; want %+v", again, err, sd)
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
