package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server/apiv1"
	"repro/internal/trace"
)

// restartServer simulates a crash-and-restart: a brand-new Server over the
// same snapshot directory, with LoadSnapshots run at boot. Nothing is
// carried over in memory — exactly the SIGKILL scenario.
func restartServer(t *testing.T, dir string, m *obs.Metrics) (*Server, *client) {
	t.Helper()
	srv, c := newTestServer(t, Config{CacheSize: 4, SnapshotDir: dir, Metrics: m})
	if _, err := srv.LoadSnapshots(context.Background()); err != nil {
		t.Fatal(err)
	}
	return srv, c
}

func TestSessionPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := obs.New()
	_, c := newTestServer(t, Config{CacheSize: 4, SnapshotDir: dir, Metrics: m})
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
	srv, c := newTestServer(t, Config{CacheSize: 4, SnapshotDir: dir, IdleTimeout: time.Minute})
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

func TestWALTornTailRestoresPrefix(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{CacheSize: 4, SnapshotDir: dir})
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
	_, c := newTestServer(t, Config{CacheSize: 4, SnapshotDir: dir})
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
	srv, c := newTestServer(t, Config{CacheSize: 4, IdleTimeout: time.Minute})
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
	srv, c := newTestServer(t, Config{CacheSize: 4, IdleTimeout: time.Millisecond})
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
	srv, c := newTestServer(t, Config{CacheSize: 4, SnapshotDir: dir})
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
	srv, c := newTestServer(t, Config{CacheSize: 4, SnapshotDir: dir})
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
