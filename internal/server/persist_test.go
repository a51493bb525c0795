package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/binio"
	"repro/internal/concept"
	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/server/apiv1"
	"repro/internal/stream"
	"repro/internal/trace"
)

// restartServer simulates a crash-and-restart: a brand-new Server over the
// same snapshot directory, with LoadSnapshots run at boot. Nothing is
// carried over in memory — exactly the SIGKILL scenario.
func restartServer(t *testing.T, dir string, m *obs.Metrics) (*Server, *client) {
	t.Helper()
	srv, c := newTestServer(t, Config{SnapshotDir: dir, Metrics: m})
	if _, err := srv.LoadSnapshots(context.Background()); err != nil {
		t.Fatal(err)
	}
	return srv, c
}

func TestSessionPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := obs.New()
	_, c := newTestServer(t, Config{SnapshotDir: dir, Metrics: m})
	created := c.mustCreate(violationFixture(t))
	sid := created.SessionID

	// Label two classes (WAL records) and add a trace (another record).
	zero, one := 0, 1
	var lr apiv1.LabelResponse
	if code := c.do("POST", "/v1/sessions/"+sid+"/label", apiv1.LabelRequest{Trace: &zero, Label: "bad"}, &lr); code != 200 {
		t.Fatalf("label: %d", code)
	}
	if code := c.do("POST", "/v1/sessions/"+sid+"/label", apiv1.LabelRequest{Trace: &one, Label: "good"}, &lr); code != 200 {
		t.Fatalf("label: %d", code)
	}
	added := c.addTraces(sid, trace.NewSet(trace.ParseEvents("v8", "X = fopen()", "fwrite(X)", "pclose(X)")))

	if saves := m.Counter("server.snapshot.save").Value(); saves != 1 {
		t.Errorf("server.snapshot.save = %d, want 1 (create only)", saves)
	}

	// "Crash": no graceful save. Restart over the same directory.
	m2 := obs.New()
	_, c2 := restartServer(t, dir, m2)
	if loads := m2.Counter("server.snapshot.load").Value(); loads != 1 {
		t.Fatalf("server.snapshot.load = %d, want 1", loads)
	}
	if rep := m2.Counter("server.snapshot.replay").Value(); rep != 3 {
		t.Errorf("server.snapshot.replay = %d, want 3 (two labels, one add)", rep)
	}

	// Same ID, same labels, same grown corpus, same lattice size.
	var info apiv1.SessionInfo
	if code := c2.do("GET", "/v1/sessions/"+sid, nil, &info); code != 200 {
		t.Fatalf("restored session not resolvable: %d", code)
	}
	if info.NumTraces != added.NumTraces || info.NumConcepts != added.NumConcepts {
		t.Fatalf("restored shape %+v, want %d classes / %d concepts", info, added.NumTraces, added.NumConcepts)
	}
	if info.Labeled != 2 {
		t.Fatalf("restored session has %d labels, want 2", info.Labeled)
	}
	var traces apiv1.TraceList
	if code := c2.do("GET", "/v1/sessions/"+sid+"/traces", nil, &traces); code != 200 {
		t.Fatal("list traces")
	}
	if traces.Traces[0].Label != "bad" || traces.Traces[1].Label != "good" {
		t.Fatalf("restored labels = %q, %q; want bad, good", traces.Traces[0].Label, traces.Traces[1].Label)
	}

	// The restored session stays fully usable: label the added class.
	idx := added.NumTraces - 1
	if code := c2.do("POST", "/v1/sessions/"+sid+"/label", apiv1.LabelRequest{Trace: &idx, Label: "good"}, &lr); code != 200 {
		t.Fatalf("label after restore: %d", code)
	}
}

func TestSnapshotFilesFollowSessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Config{SnapshotDir: dir, IdleTimeout: time.Minute})
	a := c.mustCreate(violationFixture(t))
	b := c.mustCreate(fixtureFrom(t, trace.NewSet(trace.ParseEvents("w0", "a()"))))

	snap := func(id string) string { return filepath.Join(dir, id+".snap") }
	for _, id := range []string{a.SessionID, b.SessionID} {
		if _, err := os.Stat(snap(id)); err != nil {
			t.Fatalf("no snapshot for %s: %v", id, err)
		}
	}

	// DELETE removes the files.
	if code := c.do("DELETE", "/v1/sessions/"+a.SessionID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if _, err := os.Stat(snap(a.SessionID)); !os.IsNotExist(err) {
		t.Errorf("deleted session's snapshot survived: %v", err)
	}

	// Idle eviction removes them too.
	base := time.Now()
	srv.store.now = func() time.Time { return base.Add(2 * time.Minute) }
	if n := srv.EvictIdleNow(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if _, err := os.Stat(snap(b.SessionID)); !os.IsNotExist(err) {
		t.Errorf("evicted session's snapshot survived: %v", err)
	}
}

// A <id>.snap.tmp is a snapshot write whose rename never happened: boot
// deletes it and restores the session from its .snap and .wal, and a
// DELETE leaves no file named for the session behind.
func TestSnapshotTempFilesRemoved(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{SnapshotDir: dir})
	sid := c.mustCreate(violationFixture(t)).SessionID
	c.labelTrace(sid, 0, "bad")
	tmp := filepath.Join(dir, sid+".snap.tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, c2 := restartServer(t, dir, obs.New())
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("boot left the stray temp file: %v", err)
	}
	if got := c2.sessionClasses(sid); got[0].Label != "bad" {
		t.Errorf("restored class 0 has label %q, want bad", got[0].Label)
	}

	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := c2.do("DELETE", "/v1/sessions/"+sid, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	left, err := filepath.Glob(filepath.Join(dir, sid+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("files left for a deleted session: %v", left)
	}
}

func TestWALTornTailRestoresPrefix(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{SnapshotDir: dir})
	created := c.mustCreate(violationFixture(t))
	sid := created.SessionID
	zero, one := 0, 1
	var lr apiv1.LabelResponse
	if code := c.do("POST", "/v1/sessions/"+sid+"/label", apiv1.LabelRequest{Trace: &zero, Label: "good"}, &lr); code != 200 {
		t.Fatal("label")
	}
	if code := c.do("POST", "/v1/sessions/"+sid+"/label", apiv1.LabelRequest{Trace: &one, Label: "bad"}, &lr); code != 200 {
		t.Fatal("label")
	}

	// Tear the WAL mid-record, as a crash during a write would.
	walPath := filepath.Join(dir, sid+".wal")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	_, c2 := restartServer(t, dir, obs.New())
	var traces apiv1.TraceList
	if code := c2.do("GET", "/v1/sessions/"+sid+"/traces", nil, &traces); code != 200 {
		t.Fatalf("restore after torn WAL: %d", code)
	}
	if traces.Traces[0].Label != "good" {
		t.Errorf("first (durable) record lost: label %q", traces.Traces[0].Label)
	}
	if traces.Traces[1].Label != "" {
		t.Errorf("torn record was applied: label %q", traces.Traces[1].Label)
	}
}

func TestCorruptSnapshotSkippedOnBoot(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{SnapshotDir: dir})
	good := c.mustCreate(violationFixture(t))
	bad := c.mustCreate(fixtureFrom(t, trace.NewSet(trace.ParseEvents("w0", "a()"))))

	// Flip a byte in the middle of one snapshot.
	path := filepath.Join(dir, bad.SessionID+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x41
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m := obs.New()
	srv2, c2 := restartServer(t, dir, m)
	if n := len(srv2.store.list()); n != 1 {
		t.Fatalf("%d sessions restored, want 1 (corrupt one skipped)", n)
	}
	if code := c2.do("GET", "/v1/sessions/"+good.SessionID, nil, nil); code != 200 {
		t.Errorf("intact session did not restore: %d", code)
	}
	if errs := m.Counter("server.snapshot.load_errors").Value(); errs != 1 {
		t.Errorf("server.snapshot.load_errors = %d, want 1", errs)
	}
}

// TestEvictionSkipsBusySession is the idle-eviction race regression test:
// a session whose entry lock is held (an in-flight request) must never be
// evicted out from under the request, even when its idle stamp is stale.
func TestEvictionSkipsBusySession(t *testing.T) {
	srv, c := newTestServer(t, Config{IdleTimeout: time.Minute})
	created := c.mustCreate(violationFixture(t))
	e := srv.store.list()[0]

	// Simulate an in-flight request: the handler holds the entry lock
	// while the idle horizon passes.
	e.mu.Lock()
	base := time.Now()
	srv.store.now = func() time.Time { return base.Add(2 * time.Minute) }
	if n := srv.EvictIdleNow(); n != 0 {
		t.Fatalf("evicted %d sessions while one was locked, want 0", n)
	}
	e.mu.Unlock()

	// The request completed — and touched the entry — so the session is
	// fresh again and still must not be evicted.
	srv.store.touch(e)
	if n := srv.EvictIdleNow(); n != 0 {
		t.Fatalf("evicted a session touched at request completion")
	}
	if code := c.do("GET", "/v1/sessions/"+created.SessionID, nil, nil); code != 200 {
		t.Fatalf("busy session was evicted: %d", code)
	}

	// Once genuinely idle past the horizon, it goes.
	srv.store.now = func() time.Time { return base.Add(10 * time.Minute) }
	// The GET above re-stamped lastUsed under the 2-minute clock; advance
	// past that too.
	if n := srv.EvictIdleNow(); n != 1 {
		t.Fatalf("idle session not evicted: %d", n)
	}
}

// TestEvictionConcurrentWithRequests hammers one session with labelers
// while the janitor sweeps under an aggressively advanced clock; run with
// -race this is the lock-discipline check for the eviction path. Every
// response must be a clean 200 or 404 — never a hang, panic, or torn
// state.
func TestEvictionConcurrentWithRequests(t *testing.T) {
	srv, c := newTestServer(t, Config{IdleTimeout: time.Millisecond})
	created := c.mustCreate(violationFixture(t))

	var mu sync.Mutex
	skew := time.Duration(0)
	base := time.Now()
	srv.store.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return base.Add(skew)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := i % created.NumTraces
				var lr apiv1.LabelResponse
				code := c.do("POST", "/v1/sessions/"+created.SessionID+"/label", apiv1.LabelRequest{Trace: &idx, Label: "good"}, &lr)
				if code != 200 && code != http.StatusNotFound {
					t.Errorf("labeler %d: status %d", g, code)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			mu.Lock()
			skew += time.Millisecond
			mu.Unlock()
			srv.EvictIdleNow()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// cancelAfterFirst is a request context whose Err reports nil on its
// first call and context.Canceled from the second on: a deadline expiring,
// or a client disconnecting, while the handler is already running.
type cancelAfterFirst struct {
	context.Context
	calls atomic.Int32
}

func (c *cancelAfterFirst) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// serveCancelling sends one request straight to srv's handler under a
// cancelAfterFirst context and returns the response status.
func serveCancelling(srv *Server, method, path, body string) int {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req = req.WithContext(&cancelAfterFirst{Context: context.Background()})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code
}

// sessionClasses returns a session's classes (key, count, label).
func (c *client) sessionClasses(sid string) []apiv1.TraceClass {
	c.t.Helper()
	var traces apiv1.TraceList
	if code := c.do("GET", "/v1/sessions/"+sid+"/traces", nil, &traces); code != 200 {
		c.t.Fatalf("list traces of %s: status %d", sid, code)
	}
	return traces.Traces
}

// requireBatchAtomic checks that a batch answered with status either fully
// applied (200: want more classes than before) or not at all (anything
// else: the session is unchanged), then labels the newest class and
// returns the live classes.
func requireBatchAtomic(t *testing.T, c *client, sid string, code, before, want int) []apiv1.TraceClass {
	t.Helper()
	live := c.sessionClasses(sid)
	if code == http.StatusOK && len(live) != want || code != http.StatusOK && len(live) != before {
		t.Fatalf("status %d with %d live classes (%d before, %d after a full batch)", code, len(live), before, want)
	}
	idx := len(live) - 1
	var lr apiv1.LabelResponse
	if code := c.do("POST", "/v1/sessions/"+sid+"/label", apiv1.LabelRequest{Trace: &idx, Label: "bad"}, &lr); code != 200 {
		t.Fatalf("label class %d: status %d", idx, code)
	}
	return c.sessionClasses(sid)
}

// A cancellation that lands while an add-traces batch is being applied
// must not half-apply it: the response status agrees with the live class
// count, and a restart restores exactly the live classes and labels.
func TestAddTracesCancelledMidBatchIsAtomic(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Config{SnapshotDir: dir})
	sid := c.mustCreate(violationFixture(t)).SessionID
	before := len(c.sessionClasses(sid))

	var text strings.Builder
	batch := trace.NewSet(
		trace.ParseEvents("n0", "X = popen()", "fwrite(X)"),
		trace.ParseEvents("n1", "X = fopen()", "fwrite(X)", "pclose(X)"),
	)
	if err := trace.Write(&text, batch); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(apiv1.AddTracesRequest{Traces: text.String()})
	if err != nil {
		t.Fatal(err)
	}
	code := serveCancelling(srv, "POST", "/v1/sessions/"+sid+"/traces", string(body))
	live := requireBatchAtomic(t, c, sid, code, before, before+2)

	_, c2 := restartServer(t, dir, obs.New())
	if got := c2.sessionClasses(sid); !reflect.DeepEqual(got, live) {
		t.Fatalf("restored classes %+v, live before the restart %+v", got, live)
	}
}

// The stream path: the checker consumes the batch before its violations
// reach the session, so a cancellation landing between two violation adds
// must still apply and log the whole batch.
func TestStreamEventsCancelledMidBatchIsAtomic(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Config{SnapshotDir: dir})
	sid := c.mustCreate(violationFixture(t)).SessionID
	before := len(c.sessionClasses(sid))
	st := c.openStream(sid, stdioSpec, 8)

	// Two violations, both new classes: "X = popen(); X = fopen()" and,
	// after the reset, "X = fopen()".
	code := serveCancelling(srv, "POST", "/v1/streams/"+st.StreamID+"/events",
		ndjson("X = popen()", "X = fopen()", "X = fopen()"))
	live := requireBatchAtomic(t, c, sid, code, before, before+2)
	var info apiv1.StreamInfo
	if code := c.do("GET", "/v1/streams/"+st.StreamID, nil, &info); code != 200 {
		t.Fatalf("get stream: %d", code)
	}

	_, c2 := restartServer(t, dir, obs.New())
	if got := c2.sessionClasses(sid); !reflect.DeepEqual(got, live) {
		t.Fatalf("restored classes %+v, live before the restart %+v", got, live)
	}
	var restored apiv1.StreamInfo
	if code := c2.do("GET", "/v1/streams/"+st.StreamID, nil, &restored); code != 200 {
		t.Fatalf("stream not restored: %d", code)
	}
	if restored.Events != info.Events || restored.Violations != info.Violations {
		t.Fatalf("restored stream %d events / %d violations, live had %d / %d",
			restored.Events, restored.Violations, info.Events, info.Violations)
	}
}

// anyRefFixture is violationFixture under a one-state reference FA with a
// wildcard loop, so a session accepts every stream violation as a class.
func anyRefFixture(t *testing.T) apiv1.CreateSessionRequest {
	t.Helper()
	req := violationFixture(t)
	req.RefFA = "fa any\nstates 1\nstart 0\naccept 0\nedge 0 0 *()\nend\n"
	return req
}

// streamRestart sends events as one stream batch to a fresh session, then
// restarts the server from its snapshot directory. It returns the batch's
// reply, the session's classes before the restart, and the restarted
// server's client, session ID and metrics.
func streamRestart(t *testing.T, events ...string) (apiv1.StreamEventsResponse, []apiv1.TraceClass, *client, string, *obs.Metrics) {
	t.Helper()
	dir := t.TempDir()
	_, c := newTestServer(t, Config{SnapshotDir: dir})
	sid := c.mustCreate(anyRefFixture(t)).SessionID
	st := c.openStream(sid, stdioSpec, 8)
	var resp apiv1.StreamEventsResponse
	if code := c.postRaw("/v1/streams/"+st.StreamID+"/events", ndjson(events...), &resp); code != http.StatusOK {
		t.Fatalf("stream events: status %d", code)
	}
	live := c.sessionClasses(sid)
	m := obs.New()
	_, c2 := restartServer(t, dir, m)
	return resp, live, c2, sid, m
}

// The trace file format reads a line starting with '#' as a comment, so a
// violation "X = popen(); #x()", once acknowledged, would restore as
// "X = popen()". Such an event must be refused at ingest instead: every
// acknowledged violation restores verbatim.
func TestHashEventViolationSurvivesRestart(t *testing.T) {
	resp, live, c2, sid, _ := streamRestart(t, "X = popen()", "#x()")
	restored := c2.sessionClasses(sid)
	if !reflect.DeepEqual(restored, live) {
		t.Fatalf("restored classes %+v, live before the restart %+v", restored, live)
	}
	keys := map[string]bool{}
	for _, tc := range restored {
		keys[tc.Key] = true
	}
	for _, v := range resp.Violations {
		if !keys[v.Trace] {
			t.Fatalf("acknowledged violation %q is not a class after the restart: %+v", v.Trace, restored)
		}
	}
}

// A violation binding a variable named trace ("trace = open()") must not
// read back as a nested record header, which would fail the whole
// session's restore.
func TestTraceBindingViolationSurvivesRestart(t *testing.T) {
	resp, live, c2, sid, m := streamRestart(t, "trace = open()")
	if len(resp.Violations) != 1 || resp.Violations[0].Trace != "trace = open()" {
		t.Fatalf("violations %+v, want the one trace \"trace = open()\"", resp.Violations)
	}
	if code := c2.do("GET", "/v1/sessions/"+sid, nil, nil); code != http.StatusOK {
		t.Fatalf("session after restart: status %d, server.snapshot.load_errors = %d",
			code, m.Counter("server.snapshot.load_errors").Value())
	}
	if restored := c2.sessionClasses(sid); !reflect.DeepEqual(restored, live) {
		t.Fatalf("restored classes %+v, live before the restart %+v", restored, live)
	}
}

// The snapshot and WAL in testdata/snapv1 were written by the server before
// trace reading was rewritten: a session created from violationFixture,
// two labels, one added trace, and a stream batch whose violation became a
// class. Files in the version 1 formats must keep restoring to exactly
// that session, stream included.
func TestVersion1SnapshotRestores(t *testing.T) {
	const sid, streamID = "908d0724d6f7de1f4fca14f546b9aa74", "8338e8920367f434990a4dc0b3e099fb"
	dir := t.TempDir()
	for _, ext := range []string{".snap", ".wal"} {
		data, err := os.ReadFile(filepath.Join("testdata", "snapv1", sid+ext))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sid+ext), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m := obs.New()
	_, c := restartServer(t, dir, m)
	if rep := m.Counter("server.snapshot.replay").Value(); rep != 4 {
		t.Errorf("server.snapshot.replay = %d, want 4 (two labels, the added trace, the violation)", rep)
	}
	want := []apiv1.TraceClass{
		{Index: 0, Key: "X = popen(); pclose(X)", Count: 2, Label: "bad"},
		{Index: 1, Key: "X = popen(); fread(X); pclose(X)", Count: 1, Label: "good"},
		{Index: 2, Key: "X = popen(); fwrite(X); pclose(X)", Count: 1},
		{Index: 3, Key: "X = popen(); fread(X)", Count: 1},
		{Index: 4, Key: "X = fopen(); fread(X)", Count: 1},
		{Index: 5, Key: "X = fopen(); pclose(X)", Count: 1},
		{Index: 6, Key: "X = popen(); fwrite(X); fwrite(X); pclose(X)", Count: 1},
		{Index: 7, Key: "X = popen(); fread(X); X = popen()", Count: 1},
	}
	if got := c.sessionClasses(sid); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored classes %+v, want %+v", got, want)
	}
	var info apiv1.StreamInfo
	if code := c.do("GET", "/v1/streams/"+streamID, nil, &info); code != http.StatusOK {
		t.Fatalf("stream not restored: %d", code)
	}
	if info.Events != 3 || info.Violations != 1 {
		t.Fatalf("restored stream has %d events / %d violations, want 3 / 1", info.Events, info.Violations)
	}
}

// A version 1 snapshot's lattice field is skipped, never decoded: restore
// builds the lattice from the stored traces and reference FA. So a file
// whose field holds, under a valid CRC, the lattice of another context
// with as many objects must restore the same concepts as the untouched
// file.
func TestVersion1SnapshotIgnoresStoredLattice(t *testing.T) {
	const sid = "908d0724d6f7de1f4fca14f546b9aa74"
	snap := readSnapV1(t, ".snap")
	sd, err := parseSnap(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Six objects, one per trace class, over two attributes: 4 concepts.
	foreign := concept.NewContext([]string{"o0", "o1", "o2", "o3", "o4", "o5"}, []string{"a", "b"})
	foreign.Relate(0, 0)
	foreign.Relate(1, 1)
	var dump bytes.Buffer
	if err := concept.WriteSnapshot(&dump, concept.Build(foreign)); err != nil {
		t.Fatal(err)
	}
	at := latticeFieldAt(sd)
	swapped := binio.Writer(append([]byte(nil), snap[:at]...))
	swapped.U64(uint64(dump.Len()))
	swapped = append(swapped, dump.Bytes()...)
	swapped.Seal(0)

	concepts := func(data []byte) []apiv1.Concept {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, sid+".snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := obs.New()
		_, c := restartServer(t, dir, m)
		var list apiv1.ConceptList
		if code := c.do("GET", "/v1/sessions/"+sid+"/concepts", nil, &list); code != http.StatusOK {
			t.Fatalf("list concepts: status %d, server.snapshot.load_errors = %d", code, m.Counter("server.snapshot.load_errors").Value())
		}
		return list.Concepts
	}
	want, got := concepts(snap), concepts(swapped)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %d concepts %+v, the untouched file %d %+v", len(got), got, len(want), want)
	}
}

// A snapshot whose reference FA rejects one of its traces holds no
// session a create could make: boot must skip it like a corrupt file,
// count it once, and leave its files in place.
func TestSnapshotRefRejectingTraceSkipped(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{SnapshotDir: dir})
	sid := c.mustCreate(violationFixture(t)).SessionID
	c.labelTrace(sid, 0, "bad")

	path := filepath.Join(dir, sid+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := parseSnap(data)
	if err != nil {
		t.Fatal(err)
	}
	// Without its fwrite(X) edge the reference FA rejects
	// "X = popen(); fwrite(X); pclose(X)".
	const edge = "edge 0 0 fwrite(X)\n"
	if !strings.Contains(sd.ref, edge) {
		t.Fatalf("reference FA has no %q:\n%s", edge, sd.ref)
	}
	sd.ref = strings.Replace(sd.ref, edge, "", 1)
	if err := os.WriteFile(path, sd.encode(), 0o644); err != nil {
		t.Fatal(err)
	}

	m := obs.New()
	srv2, c2 := restartServer(t, dir, m)
	if code := c2.do("GET", "/v1/sessions/"+sid, nil, nil); code != http.StatusNotFound {
		t.Errorf("session whose reference FA rejects a stored trace: status %d, want 404", code)
	}
	if n := len(srv2.store.list()); n != 0 {
		t.Errorf("%d sessions restored, want 0", n)
	}
	if errs := m.Counter("server.snapshot.load_errors").Value(); errs != 1 {
		t.Errorf("server.snapshot.load_errors = %d, want 1", errs)
	}
	for _, ext := range []string{".snap", ".wal"} {
		if _, err := os.Stat(filepath.Join(dir, sid+ext)); err != nil {
			t.Errorf("skipped session's %s file: %v", ext, err)
		}
	}
}

// Clients keep concept IDs across a restart, so the lattice boot builds
// from a snapshot must be the live lattice byte for byte, incremental
// adds included.
func TestRestoredLatticeMatchesLive(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Config{SnapshotDir: dir})
	sid := c.mustCreate(violationFixture(t)).SessionID
	c.addTraces(sid, trace.NewSet(
		trace.ParseEvents("a0", "X = fopen()", "fwrite(X)", "pclose(X)"),
		trace.ParseEvents("a1", "X = popen()", "fread(X)", "fwrite(X)")))
	if _, err := srv.SaveSnapshots(); err != nil {
		t.Fatal(err)
	}
	srv2, _ := restartServer(t, dir, obs.New())
	dump := func(s *Server) []byte {
		res, ok := s.store.resolve(sid)
		if !ok {
			t.Fatalf("session %s not found", sid)
		}
		res.entry.mu.Lock()
		defer res.entry.mu.Unlock()
		var b bytes.Buffer
		if err := concept.WriteSnapshot(&b, res.entry.session.Lattice()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if live, restored := dump(srv), dump(srv2); !bytes.Equal(restored, live) {
		t.Fatalf("restored lattice differs from the live one: %d vs %d bytes", len(restored), len(live))
	}
}

// labelTrace labels one trace class of a session and requires a 200.
func (c *client) labelTrace(sid string, i int, label string) {
	c.t.Helper()
	if code := c.do("POST", "/v1/sessions/"+sid+"/label", apiv1.LabelRequest{Trace: &i, Label: label}, nil); code != http.StatusOK {
		c.t.Fatalf("label trace %d of %s: status %d", i, sid, code)
	}
}

// A torn tail must not swallow what comes after it: a label acknowledged
// after the restart that found the tear survives the next restart, whether
// the tear cut a record or the log's header.
func TestWALTornTailKeepsLaterRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		keep func(wal []byte) int // how many bytes of the log survive the crash
		want []string             // the first three classes' labels at the end
	}{
		{"record", func(wal []byte) int { return len(wal) - 3 }, []string{"good", "", "bad"}},
		{"header", func([]byte) int { return 3 }, []string{"", "", "bad"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, c := newTestServer(t, Config{SnapshotDir: dir})
			sid := c.mustCreate(violationFixture(t)).SessionID
			c.labelTrace(sid, 0, "good")
			c.labelTrace(sid, 1, "bad")
			walPath := filepath.Join(dir, sid+".wal")
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(walPath, data[:tc.keep(data)], 0o644); err != nil {
				t.Fatal(err)
			}

			_, c2 := restartServer(t, dir, obs.New())
			c2.labelTrace(sid, 2, "bad")
			_, c3 := restartServer(t, dir, obs.New())
			classes := c3.sessionClasses(sid)
			for i, want := range tc.want {
				if classes[i].Label != want {
					t.Errorf("class %d after two restarts: label %q, want %q", i, classes[i].Label, want)
				}
			}
		})
	}
}

// A client that finds a newborn session in a listing may label it while
// the create request is still writing its snapshot. The snapshot must take
// the entry lock (run with -race), and every acknowledged label must
// survive a restart.
func TestCreateSnapshotRacesLabel(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	_, c := newTestServer(t, Config{SnapshotDir: dir})
	fixture := violationFixture(t)
	created := make(chan struct{})
	var labeled []string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := map[string]bool{}
		for last := false; !last; {
			select {
			case <-created:
				last = true // one more listing catches the final sessions
			default:
			}
			var list apiv1.SessionList
			if code := c.do("GET", "/v1/sessions", nil, &list); code != http.StatusOK {
				t.Errorf("list sessions: status %d", code)
				return
			}
			for _, info := range list.Sessions {
				if seen[info.SessionID] {
					continue
				}
				seen[info.SessionID] = true
				zero := 0
				code := c.do("POST", "/v1/sessions/"+info.SessionID+"/label", apiv1.LabelRequest{Trace: &zero, Label: "bad"}, nil)
				if code != http.StatusOK {
					t.Errorf("label %s: status %d", info.SessionID, code)
					return
				}
				labeled = append(labeled, info.SessionID)
			}
		}
	}()
	for i := 0; i < n; i++ {
		c.mustCreate(fixture)
	}
	close(created)
	wg.Wait()
	if t.Failed() {
		return
	}

	srv2, c2 := restartServer(t, dir, obs.New())
	if got := len(srv2.store.list()); got != n || len(labeled) != n {
		t.Fatalf("%d sessions restored and %d labeled, want %d of each", got, len(labeled), n)
	}
	for _, sid := range labeled {
		if l := c2.sessionClasses(sid)[0].Label; l != "bad" {
			t.Fatalf("session %s: acknowledged label lost across the restart (label %q)", sid, l)
		}
	}
}

// A request that resolved a session before it was deleted still holds its
// entry. Whatever it persists afterwards — a label record, a snapshot —
// must not re-create the session's files.
func TestWALNotWrittenAfterDelete(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Config{SnapshotDir: dir})
	sid := c.mustCreate(violationFixture(t)).SessionID
	c.labelTrace(sid, 0, "good") // the log is open now
	res, ok := srv.store.resolve(sid)
	if !ok {
		t.Fatal("resolve")
	}
	if code := c.do("DELETE", "/v1/sessions/"+sid, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}

	e := res.entry
	e.mu.Lock()
	before := e.session.Labels()
	labelErr := e.session.LabelTrace(1, "bad")
	srv.walLabelDiff(e, e.session, before)
	snapErr := srv.snapshotSession(e)
	open := e.wal != nil
	e.mu.Unlock()
	if labelErr != nil || snapErr != nil {
		t.Fatalf("label: %v; snapshot: %v", labelErr, snapErr)
	}
	if open {
		t.Error("a deleted session holds an open log")
	}
	if des, err := os.ReadDir(dir); err != nil || len(des) != 0 {
		t.Fatalf("files after delete: %v (err %v)", des, err)
	}
}

// walOf returns the session's open log handle.
func walOf(srv *Server, sid string) *os.File {
	res, _ := srv.store.resolve(sid)
	res.entry.mu.Lock()
	defer res.entry.mu.Unlock()
	return res.entry.wal
}

// writeCalls returns how many write(2) calls the process has made, from
// /proc/self/io, and false where that count is not available.
func writeCalls() (int64, bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// The first record after a snapshot opens the log; later requests reuse
// that handle and write all their records with one write(2). Relabeling
// the top concept logs one record per class, so the parent's
// write-per-record loop would make six.
func TestWALHandleReused(t *testing.T) {
	srv := New(Config{SnapshotDir: t.TempDir(), Metrics: obs.New()})
	c := &client{t: t, base: "http://cabled", http: &http.Client{Transport: inProcess{srv.Handler()}}}
	created := c.mustCreate(violationFixture(t))
	sid := created.SessionID
	if f := walOf(srv, sid); f != nil {
		t.Fatal("a session with no records since its snapshot holds an open log")
	}
	c.labelTrace(sid, 0, "good")
	first := walOf(srv, sid)
	if first == nil {
		t.Fatal("no open log after a label")
	}
	// The fewest writes over a few requests, in case some other part of
	// the process writes while one of them runs.
	fewest, counted := int64(math.MaxInt64), true
	for _, label := range []string{"bad", "good", "bad"} {
		before, ok1 := writeCalls()
		var lr apiv1.LabelResponse
		code := c.do("POST", "/v1/sessions/"+sid+"/label", apiv1.LabelRequest{Concept: &created.Top, Label: label}, &lr)
		after, ok2 := writeCalls()
		if code != http.StatusOK || lr.Labeled != created.NumTraces {
			t.Fatalf("label top concept: status %d, %d labeled, want %d", code, lr.Labeled, created.NumTraces)
		}
		if f := walOf(srv, sid); f != first {
			t.Fatalf("label %q: log %p, first label's %p: want one handle", label, f, first)
		}
		counted = counted && ok1 && ok2
		fewest = min(fewest, after-before)
	}
	if counted && fewest != 1 {
		t.Fatalf("a %d-record label request made %d write calls, want 1", created.NumTraces, fewest)
	}
}

// inProcess serves a client's requests straight from a handler, so no
// socket descriptor opens or closes between two counts of /proc/self/fd.
type inProcess struct{ h http.Handler }

func (p inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// With persistence on, every way a session's log closes — a snapshot, a
// delete, an idle eviction — gives its descriptor back: after a few
// hundred sessions have come and gone the process holds no more
// descriptors than before and none into the snapshot directory, and while
// the sessions live they hold at most one each.
func TestWALDescriptorsReturnToBaseline(t *testing.T) {
	dir := t.TempDir()
	// countFDs returns the process's descriptors and how many of them
	// name a file in dir. Abandoned servers of earlier tests may close
	// theirs meanwhile (os.File's finalizer), so the total can only be
	// held to an upper bound.
	countFDs := func() (total, inDir int) {
		des, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count descriptors: %v", err)
		}
		for _, de := range des {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", de.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
				inDir++
			}
		}
		return len(des), inDir
	}
	base, _ := countFDs()
	srv := New(Config{SnapshotDir: dir, IdleTimeout: time.Minute, Metrics: obs.New()})
	c := &client{t: t, base: "http://cabled", http: &http.Client{Transport: inProcess{srv.Handler()}}}
	const n = 200
	extra := trace.NewSet(trace.ParseEvents("n0", "X = popen()", "fwrite(X)"))
	for i := 0; i < n; i++ {
		created := c.mustCreate(anyRefFixture(t))
		sid := created.SessionID
		c.labelTrace(sid, 0, "good")
		c.addTraces(sid, extra)
		st := c.openStream(sid, stdioSpec, 8)
		if code := c.postRaw("/v1/streams/"+st.StreamID+"/events", ndjson("X = popen()", "X = fopen()"), nil); code != http.StatusOK {
			t.Fatalf("stream events: status %d", code)
		}
		var focus apiv1.FocusResponse
		if code := c.do("POST", "/v1/sessions/"+sid+"/focus", apiv1.FocusRequest{Concept: created.Top, RefFA: anyRefFixture(t).RefFA}, &focus); code != http.StatusCreated {
			t.Fatalf("focus: status %d", code)
		}
		if code := c.do("POST", "/v1/sessions/"+focus.SessionID+"/end", nil, nil); code != http.StatusOK {
			t.Fatalf("end focus: status %d", code)
		}
		c.labelTrace(sid, 1, "bad")
		if i%2 == 0 {
			if code := c.do("DELETE", "/v1/sessions/"+sid, nil, nil); code != http.StatusNoContent {
				t.Fatalf("delete: status %d", code)
			}
		}
	}
	if _, logs := countFDs(); logs != len(srv.store.list()) {
		t.Fatalf("%d descriptors into the snapshot directory, want one per live session (%d)", logs, len(srv.store.list()))
	}
	now := time.Now()
	srv.store.now = func() time.Time { return now.Add(2 * time.Minute) }
	if evicted := srv.EvictIdleNow(); evicted != n/2 {
		t.Fatalf("evicted %d sessions, want %d", evicted, n/2)
	}
	if total, logs := countFDs(); total > base || logs != 0 {
		t.Fatalf("after every session left: %d descriptors (baseline %d), %d into the snapshot directory", total, base, logs)
	}
}

// get_session and list_sessions report a session's durability form from
// its entry: "snapshot" when created, "wal" once a record follows, back to
// "snapshot" when a focus merge rewrites the snapshot, and "wal" again
// after a restart that replays a log.
func TestSnapshotFieldFollowsLifecycle(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{SnapshotDir: dir})
	created := c.mustCreate(violationFixture(t))
	sid := created.SessionID
	expect := func(c *client, step, want string) {
		t.Helper()
		var info apiv1.SessionInfo
		if code := c.do("GET", "/v1/sessions/"+sid, nil, &info); code != http.StatusOK || info.Snapshot != want {
			t.Fatalf("after %s: get_session status %d, snapshot %q; want %q", step, code, info.Snapshot, want)
		}
		var list apiv1.SessionList
		if code := c.do("GET", "/v1/sessions", nil, &list); code != http.StatusOK || len(list.Sessions) != 1 || list.Sessions[0].Snapshot != want {
			t.Fatalf("after %s: list_sessions status %d, %+v; want snapshot %q", step, code, list.Sessions, want)
		}
	}
	expect(c, "create", "snapshot")
	c.labelTrace(sid, 0, "good")
	expect(c, "label", "wal")
	var focus apiv1.FocusResponse
	if code := c.do("POST", "/v1/sessions/"+sid+"/focus", apiv1.FocusRequest{Concept: created.Top, RefFA: violationFixture(t).RefFA}, &focus); code != http.StatusCreated {
		t.Fatalf("focus: status %d", code)
	}
	if code := c.do("POST", "/v1/sessions/"+focus.SessionID+"/end", nil, nil); code != http.StatusOK {
		t.Fatalf("end focus: status %d", code)
	}
	expect(c, "focus end", "snapshot")
	c.labelTrace(sid, 1, "bad")
	_, c2 := restartServer(t, dir, obs.New())
	expect(c2, "restart with a log", "wal")
}

// replayStreamLog creates a session over violationFixture with persistence
// on, replaces its log with the given stream records, and restarts the
// server over the directory. The records come from render, which gets a
// checker over the session's reference FA.
func replayStreamLog(t *testing.T, render func(chk *stream.Checker, feed func(...string)) [][]byte) *client {
	t.Helper()
	fx := violationFixture(t)
	ref, err := fa.Read(strings.NewReader(fx.RefFA))
	if err != nil {
		t.Fatal(err)
	}
	chk := stream.New(ref.Sim(), stream.Config{})
	feed := func(evs ...string) {
		for _, e := range evs {
			if _, fired, err := chk.Feed(event.MustParse(e)); fired || err != nil {
				t.Fatalf("feeding %s: fired %v, err %v", e, fired, err)
			}
		}
	}
	dir := t.TempDir()
	_, c := newTestServer(t, Config{SnapshotDir: dir})
	sid := c.mustCreate(fx).SessionID
	wal := append([]byte(walMagic), walVer)
	for _, rec := range render(chk, feed) {
		wal = append(wal, rec...)
	}
	if err := os.WriteFile(filepath.Join(dir, sid+".wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}
	_, c2 := restartServer(t, dir, obs.New())
	return c2
}

// TestStreamReplayKeepsMostAdvancedRecord: two batches on one stream feed
// in order under the stream lock but may log their records in the other
// order; replay restores the stream from the record with more events, not
// the one logged last.
func TestStreamReplayKeepsMostAdvancedRecord(t *testing.T) {
	const id = "5ea15ea15ea15ea15ea15ea15ea15ea1"
	c := replayStreamLog(t, func(chk *stream.Checker, feed func(...string)) [][]byte {
		feed("X = popen()", "fread(X)")
		early := walStreamRecord(id, "", false, chk.State())
		feed("fwrite(X)", "fread(X)", "pclose(X)")
		late := walStreamRecord(id, "", false, chk.State())
		return [][]byte{late, early}
	})
	var info apiv1.StreamInfo
	if code := c.do("GET", "/v1/streams/"+id, nil, &info); code != http.StatusOK || info.Events != 5 {
		t.Fatalf("restored stream: status %d, %d events; want 200 and the later record's 5", code, info.Events)
	}
}

// TestStreamReplayTombstoneWinsTie: a batch that resolved its stream just
// before a close feeds nothing after Finalize yet logs an open record with
// the tombstone's count, and that record may land after the tombstone;
// the stream stays closed on restart.
func TestStreamReplayTombstoneWinsTie(t *testing.T) {
	const id = "c105edc105edc105edc105edc105edc1"
	c := replayStreamLog(t, func(chk *stream.Checker, feed func(...string)) [][]byte {
		feed("X = popen()", "pclose(X)")
		open := walStreamRecord(id, "", false, chk.State())
		return [][]byte{open, walStreamRecord(id, "", true, chk.State()), open}
	})
	if code := c.do("GET", "/v1/streams/"+id, nil, nil); code != http.StatusNotFound {
		t.Fatalf("closed stream restored: status %d, want 404", code)
	}
}
