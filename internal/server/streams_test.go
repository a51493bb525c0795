package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/obs"
	"repro/internal/server/apiv1"
	"repro/internal/trace"
)

// stdioSpec is a strict two-state protocol FA over (a subset of) the
// violationFixture alphabet: popen opens, fread/fwrite use, pclose
// closes. "X = fopen()" has no edge anywhere, so it kills the frontier.
const stdioSpec = "fa stdio\n" +
	"states 2\n" +
	"start 0\n" +
	"accept 0\n" +
	"edge 0 1 X = popen()\n" +
	"edge 1 1 fread(X)\n" +
	"edge 1 1 fwrite(X)\n" +
	"edge 1 0 pclose(X)\n" +
	"end\n"

// ndjson turns event texts into an NDJSON batch body.
func ndjson(events ...string) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "{\"event\": %q}\n", e)
	}
	return b.String()
}

// postRaw sends a non-JSON body (NDJSON batches) and decodes the reply.
func (c *client) postRaw(path, body string, out any) int {
	c.t.Helper()
	return c.postReader(path, strings.NewReader(body), out)
}

// postReader is postRaw streaming the body from r.
func (c *client) postReader(path string, r io.Reader, out any) int {
	c.t.Helper()
	resp, err := c.http.Post(c.base+path, "application/x-ndjson", r)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("POST %s: decoding %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

func (c *client) openStream(sid, spec string, window int) apiv1.OpenStreamResponse {
	c.t.Helper()
	var resp apiv1.OpenStreamResponse
	if code := c.do("POST", "/v1/streams", apiv1.OpenStreamRequest{
		SessionID: sid, Spec: spec, Window: window,
	}, &resp); code != http.StatusCreated {
		c.t.Fatalf("open stream: status %d", code)
	}
	return resp
}

// An explicit spec is speclinted at open time: findings come back as
// non-fatal warnings, and the stream opens regardless. A stream bound to
// the session's own reference FA is never linted.
func TestStreamOpenWarnings(t *testing.T) {
	_, c := newTestServer(t, Config{})
	sid := c.mustCreate(violationFixture(t)).SessionID

	// A vacuous spec (accepts everything over its alphabet) is the classic
	// useless verifier; the open succeeds but says so.
	vacuous := "fa allpopen\nstates 1\nstart 0\naccept 0\nedge 0 0 X = popen()\nend\n"
	opened := c.openStream(sid, vacuous, 8)
	if len(opened.Warnings) != 1 {
		t.Fatalf("warnings = %+v, want the vacuous-acceptance finding", opened.Warnings)
	}
	w := opened.Warnings[0]
	if w.Spec != "allpopen" || w.Rule != "vacuous-acceptance" {
		t.Fatalf("warning = %+v", w)
	}
	if code := c.do("GET", "/v1/streams/"+opened.StreamID, nil, nil); code != http.StatusOK {
		t.Fatalf("warned stream not open: %d", code)
	}

	// No explicit spec: the session's reference FA is trusted as-is.
	opened = c.openStream(sid, "", 8)
	if len(opened.Warnings) != 0 {
		t.Fatalf("default-spec warnings = %+v, want none", opened.Warnings)
	}
}

func TestStreamLifecycle(t *testing.T) {
	m := obs.New()
	_, c := newTestServer(t, Config{Metrics: m})
	created := c.mustCreate(violationFixture(t))
	sid := created.SessionID

	opened := c.openStream(sid, stdioSpec, 8)
	if opened.Window != 8 || opened.SessionID != sid {
		t.Fatalf("open = %+v", opened)
	}
	if len(opened.Warnings) != 0 {
		t.Fatalf("clean spec produced warnings: %+v", opened.Warnings)
	}
	stid := opened.StreamID

	// Session info counts its streams.
	var sinfo apiv1.SessionInfo
	if code := c.do("GET", "/v1/sessions/"+sid, nil, &sinfo); code != 200 || sinfo.Streams != 1 {
		t.Fatalf("session info: code %d, streams %d, want 1", code, sinfo.Streams)
	}

	// First batch: a clean protocol round, then fopen kills the frontier.
	var ev apiv1.StreamEventsResponse
	if code := c.postRaw("/v1/streams/"+stid+"/events",
		ndjson("X = popen()", "fread(X)", "pclose(X)", "X = popen()", "X = fopen()"), &ev); code != 200 {
		t.Fatalf("events: %d", code)
	}
	if ev.Accepted != 5 || ev.Events != 5 || len(ev.Errors) != 0 {
		t.Fatalf("events response = %+v", ev)
	}
	if len(ev.Violations) != 1 {
		t.Fatalf("violations = %+v, want 1", ev.Violations)
	}
	v := ev.Violations[0]
	wantTrace := "X = popen(); fread(X); pclose(X); X = popen(); X = fopen()"
	if v.Trace != wantTrace || v.At != 4 || v.Offset != 4 || v.Incomplete || v.Truncated {
		t.Fatalf("violation = %+v, want trace %q at 4", v, wantTrace)
	}
	// The windowed counterexample became a new lattice class in the
	// owning session.
	if ev.NewClasses != 1 {
		t.Fatalf("NewClasses = %d, want 1", ev.NewClasses)
	}
	var traces apiv1.TraceList
	if code := c.do("GET", "/v1/sessions/"+sid+"/traces", nil, &traces); code != 200 {
		t.Fatal("list traces")
	}
	last := traces.Traces[len(traces.Traces)-1]
	if last.Key != wantTrace {
		t.Fatalf("appended class = %q, want %q", last.Key, wantTrace)
	}
	if last.Count != 1 {
		t.Fatalf("appended class count = %d", last.Count)
	}

	// Stream introspection after the violation: the checker reset to the
	// start states, which are accepting.
	var info apiv1.StreamInfo
	if code := c.do("GET", "/v1/streams/"+stid, nil, &info); code != 200 {
		t.Fatalf("get stream: %d", code)
	}
	if info.Events != 5 || info.Violations != 1 || info.Spec != "stdio" || !info.Accepting {
		t.Fatalf("stream info = %+v", info)
	}
	if info.Created == "" {
		t.Error("stream info missing created stamp")
	}

	// Partial progress: bad lines are reported with their line numbers,
	// good lines around them still apply.
	if code := c.postRaw("/v1/streams/"+stid+"/events",
		"{\"event\": \"X = popen()\"}\n"+
			"{\"evnt\": \"oops\"}\n"+
			"not json at all\n"+
			"{\"event\": \"fread(X)\"}\n", &ev); code != 200 {
		t.Fatalf("partial batch: %d", code)
	}
	if ev.Accepted != 2 || len(ev.Errors) != 2 {
		t.Fatalf("partial response = %+v", ev)
	}
	if ev.Errors[0].Line != 2 || ev.Errors[1].Line != 3 {
		t.Fatalf("error lines = %d, %d, want 2, 3", ev.Errors[0].Line, ev.Errors[1].Line)
	}
	for _, e := range ev.Errors {
		if e.Code != "bad_request" || e.Detail != "stream" {
			t.Fatalf("line error envelope = %+v", e)
		}
	}

	// Finalize mid-protocol: popen+fread left the spec in its non-accepting
	// use state, so DELETE raises an incomplete violation whose window is
	// everything since the last reset.
	var closed apiv1.CloseStreamResponse
	if code := c.do("DELETE", "/v1/streams/"+stid, nil, &closed); code != 200 {
		t.Fatalf("close: %d", code)
	}
	if closed.Events != 7 || closed.ViolationTotal != 2 {
		t.Fatalf("close = %+v", closed)
	}
	if closed.Violation == nil || !closed.Violation.Incomplete || closed.Violation.Trace != "X = popen(); fread(X)" {
		t.Fatalf("close violation = %+v", closed.Violation)
	}
	if code := c.do("GET", "/v1/streams/"+stid, nil, nil); code != http.StatusNotFound {
		t.Errorf("closed stream still resolves: %d", code)
	}
	if code := c.do("DELETE", "/v1/streams/"+stid, nil, nil); code != http.StatusNotFound {
		t.Errorf("double close: %d, want 404", code)
	}

	// Both violations are lattice classes now; the incomplete one too.
	if code := c.do("GET", "/v1/sessions/"+sid+"/traces", nil, &traces); code != 200 {
		t.Fatal("list traces")
	}
	keys := map[string]bool{}
	for _, tc := range traces.Traces {
		keys[tc.Key] = true
	}
	if !keys[wantTrace] || !keys["X = popen(); fread(X)"] {
		t.Fatalf("violation classes missing from session: %v", keys)
	}

	if got := m.Counter("server.stream.events").Value(); got != 7 {
		t.Errorf("server.stream.events = %d, want 7", got)
	}
	if got := m.Counter("server.streams.opened").Value(); got != 1 {
		t.Errorf("server.streams.opened = %d, want 1", got)
	}
	if got := m.Counter("server.streams.finalized").Value(); got != 1 {
		t.Errorf("server.streams.finalized = %d, want 1", got)
	}
	if got := m.Counter("server.stream.violations").Value(); got != 2 {
		t.Errorf("server.stream.violations = %d, want 2", got)
	}
}

// TestStreamDefaultSpec: with no explicit spec the stream checks the
// session's reference FA. Violations of the reference FA itself cannot
// become lattice objects (the reference rejects them by definition) —
// they surface to the client and bump the append_rejected counter.
func TestStreamDefaultSpec(t *testing.T) {
	m := obs.New()
	_, c := newTestServer(t, Config{Metrics: m})
	created := c.mustCreate(violationFixture(t))
	opened := c.openStream(created.SessionID, "", 0)

	var info apiv1.StreamInfo
	if code := c.do("GET", "/v1/streams/"+opened.StreamID, nil, &info); code != 200 {
		t.Fatal("get stream")
	}
	if info.Spec != "all-traces" {
		t.Fatalf("default spec = %q, want the session reference FA", info.Spec)
	}

	// An out-of-alphabet event is the only way to violate the permissive
	// reference FA.
	var ev apiv1.StreamEventsResponse
	if code := c.postRaw("/v1/streams/"+opened.StreamID+"/events",
		ndjson("X = popen()", "launch_missiles(X)"), &ev); code != 200 {
		t.Fatalf("events: %d", code)
	}
	if len(ev.Violations) != 1 || ev.NewClasses != 0 {
		t.Fatalf("response = %+v, want 1 violation, 0 new classes", ev)
	}
	if got := m.Counter("server.stream.append_rejected").Value(); got != 1 {
		t.Errorf("append_rejected = %d, want 1", got)
	}
	var sinfo apiv1.SessionInfo
	if code := c.do("GET", "/v1/sessions/"+created.SessionID, nil, &sinfo); code != 200 {
		t.Fatal("info")
	}
	if sinfo.NumTraces != created.NumTraces {
		t.Errorf("rejected window mutated the session: %d classes", sinfo.NumTraces)
	}
}

// cycleReader repeats unit without end, so a test can send a body past a
// server limit without holding it in memory.
type cycleReader struct {
	unit string
	off  int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		k := copy(p[n:], c.unit[c.off:])
		n += k
		c.off = (c.off + k) % len(c.unit)
	}
	return n, nil
}

// A batch over maxStreamBatch keeps the lines before the limit applied
// and reports the rest as one too_large line error, instead of dropping
// every byte past the limit without a word. The limit falls inside an
// event line, which is neither fed nor reported as malformed.
func TestStreamBatchOverLimit(t *testing.T) {
	_, c := newTestServer(t, Config{})
	created := c.mustCreate(violationFixture(t))
	opened := c.openStream(created.SessionID, "", 0)

	head := ndjson("X = popen()", "fread(X)")
	pad := strings.Repeat(" ", 4095) + "\n" // blank lines, skipped
	ev := ndjson("fread(X)")
	// head, then blank lines, then event lines: ten whole ones fit under
	// the limit, and it falls in the middle of the eleventh.
	padBytes := int64(maxStreamBatch - len(head) - 10*len(ev) - len(ev)/2)
	body := io.MultiReader(strings.NewReader(head),
		io.LimitReader(&cycleReader{unit: pad}, padBytes), &cycleReader{unit: ev})
	var resp apiv1.StreamEventsResponse
	if code := c.postReader("/v1/streams/"+opened.StreamID+"/events", body, &resp); code != http.StatusOK {
		t.Fatalf("events: status %d", code)
	}
	if resp.Accepted != 12 || resp.Events != 12 || len(resp.Violations) != 0 {
		t.Errorf("accepted %d, events %d, %d violations; want the 12 events before the limit, none violating",
			resp.Accepted, resp.Events, len(resp.Violations))
	}
	if len(resp.Errors) != 1 || resp.Errors[0].Code != "too_large" || resp.Errors[0].Line == 0 {
		t.Fatalf("errors = %+v, want one too_large line error", resp.Errors)
	}
}

func TestStreamValidation(t *testing.T) {
	_, c := newTestServer(t, Config{})
	created := c.mustCreate(violationFixture(t))

	var apiErr apiv1.Error
	if code := c.do("POST", "/v1/streams", apiv1.OpenStreamRequest{
		SessionID: created.SessionID, Spec: "gibberish",
	}, &apiErr); code != 400 || apiErr.Code != "bad_request" {
		t.Errorf("bad spec: %d %q", code, apiErr.Code)
	}
	if code := c.do("POST", "/v1/streams", apiv1.OpenStreamRequest{
		SessionID: created.SessionID, Window: -1,
	}, &apiErr); code != 400 {
		t.Errorf("negative window: %d", code)
	}

	// Streams bind to top-level sessions, not focus sub-sessions.
	var focus apiv1.FocusResponse
	if code := c.do("POST", "/v1/sessions/"+created.SessionID+"/focus", apiv1.FocusRequest{
		Concept: created.Top, RefFA: violationFixture(t).RefFA,
	}, &focus); code != http.StatusCreated {
		t.Fatalf("focus: %d", code)
	}
	if code := c.do("POST", "/v1/streams", apiv1.OpenStreamRequest{
		SessionID: focus.SessionID,
	}, &apiErr); code != 400 {
		t.Errorf("stream on focus session: %d, want 400", code)
	}
}

func TestStreamListPagination(t *testing.T) {
	_, c := newTestServer(t, Config{})
	a := c.mustCreate(violationFixture(t))
	b := c.mustCreate(fixtureFrom(t, trace.NewSet(trace.ParseEvents("w0", "a()"))))
	for i := 0; i < 3; i++ {
		c.openStream(a.SessionID, "", 0)
	}
	c.openStream(b.SessionID, "", 0)

	var ids []string
	cursor := ""
	for {
		path := "/v1/streams?limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		var list apiv1.StreamList
		if code := c.do("GET", path, nil, &list); code != 200 {
			t.Fatalf("list: %d", code)
		}
		if len(list.Streams) > 2 {
			t.Fatalf("page of %d, limit 2", len(list.Streams))
		}
		for _, si := range list.Streams {
			ids = append(ids, si.StreamID)
		}
		if list.NextCursor == "" {
			break
		}
		cursor = list.NextCursor
	}
	if len(ids) != 4 {
		t.Fatalf("paginated walk saw %d streams, want 4", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("stream IDs not strictly ascending: %v", ids)
		}
	}

	// Owner filter.
	var list apiv1.StreamList
	if code := c.do("GET", "/v1/streams?session="+b.SessionID, nil, &list); code != 200 {
		t.Fatal("filtered list")
	}
	if len(list.Streams) != 1 || list.Streams[0].SessionID != b.SessionID {
		t.Fatalf("filtered list = %+v", list.Streams)
	}

	// Session pagination mirrors stream pagination.
	var sl apiv1.SessionList
	if code := c.do("GET", "/v1/sessions?limit=1", nil, &sl); code != 200 {
		t.Fatal("list sessions")
	}
	if len(sl.Sessions) != 1 || sl.NextCursor == "" {
		t.Fatalf("session page = %d entries, cursor %q", len(sl.Sessions), sl.NextCursor)
	}
	var sl2 apiv1.SessionList
	if code := c.do("GET", "/v1/sessions?limit=1&cursor="+sl.NextCursor, nil, &sl2); code != 200 {
		t.Fatal("list sessions page 2")
	}
	if len(sl2.Sessions) != 1 || sl2.NextCursor != "" {
		t.Fatalf("session page 2 = %d entries, cursor %q", len(sl2.Sessions), sl2.NextCursor)
	}
	if sl.Sessions[0].SessionID == sl2.Sessions[0].SessionID {
		t.Fatal("pagination repeated a session")
	}
}

func TestStreamsDieWithSession(t *testing.T) {
	srv, c := newTestServer(t, Config{IdleTimeout: time.Minute})
	a := c.mustCreate(violationFixture(t))
	b := c.mustCreate(fixtureFrom(t, trace.NewSet(trace.ParseEvents("w0", "a()"))))
	onA := c.openStream(a.SessionID, stdioSpec, 0)
	onB := c.openStream(b.SessionID, "", 0)

	// DELETE session → its streams are gone.
	if code := c.do("DELETE", "/v1/sessions/"+a.SessionID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := c.postRaw("/v1/streams/"+onA.StreamID+"/events", ndjson("X = popen()"), nil); code != http.StatusNotFound {
		t.Errorf("feed after owner delete: %d, want 404", code)
	}

	// Idle eviction closes streams too — but a session with live streams
	// is touched by its stream traffic (resolveStream bumps the owner).
	base := time.Now()
	srv.store.now = func() time.Time { return base.Add(2 * time.Minute) }
	if n := srv.EvictIdleNow(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	if code := c.postRaw("/v1/streams/"+onB.StreamID+"/events", ndjson("a()"), nil); code != http.StatusNotFound {
		t.Errorf("feed after owner eviction: %d, want 404", code)
	}
	var list apiv1.StreamList
	if code := c.do("GET", "/v1/streams", nil, &list); code != 200 || len(list.Streams) != 0 {
		t.Errorf("streams survived their owners: %+v", list.Streams)
	}
}

// TestStreamBatchFindsUnlinkedSessionGone holds a session's entry lock
// while a violating stream batch resolves the session, unlinks it as a
// DELETE would, then lets the batch go on: the batch finds the session
// gone and adds nothing to it. Its violations still reach the client, as
// orphans with no new class.
func TestStreamBatchFindsUnlinkedSessionGone(t *testing.T) {
	m := obs.New()
	srv, c := newTestServer(t, Config{Metrics: m})
	created := c.mustCreate(violationFixture(t))
	opened := c.openStream(created.SessionID, stdioSpec, 8)
	res, _ := srv.store.resolve(created.SessionID)
	e := res.entry
	// resolveStream, then appendViolations' resolve, read the clock.
	resolved := make(chan struct{}, 2)
	srv.store.now = func() time.Time {
		select {
		case resolved <- struct{}{}:
		default:
		}
		return time.Now()
	}
	req := httptest.NewRequest("POST", "/v1/streams/"+opened.StreamID+"/events",
		strings.NewReader(ndjson("X = popen()", "fread(X)", "pclose(X)", "X = popen()", "X = fopen()")))
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	e.mu.Lock()
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(rec, req)
	}()
	<-resolved // the stream
	<-resolved // the owner session: the batch waits for its lock
	ok := srv.store.unlink(e, time.Time{})
	e.mu.Unlock()
	<-done
	srv.store.now = time.Now
	if !ok {
		t.Fatal("unlink refused a live session")
	}
	var ev apiv1.StreamEventsResponse
	if rec.Code != http.StatusOK {
		t.Fatalf("events: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Violations) != 1 || ev.NewClasses != 0 {
		t.Errorf("%d violations, %d new classes; want the 1 violation and no new class", len(ev.Violations), ev.NewClasses)
	}
	e.mu.Lock()
	n := e.session.NumTraces()
	e.mu.Unlock()
	if n != created.NumTraces {
		t.Errorf("stream batch grew a deleted session to %d classes, want %d", n, created.NumTraces)
	}
	if got := m.Counter("server.stream.orphan_violations").Value(); got != 1 {
		t.Errorf("orphan violations = %d, want 1", got)
	}
}

// TestConcurrentStreamsLatticeMatchesBatch is the acceptance check for
// the streaming tentpole, run under -race in the race lane: many
// concurrent streams feed one session while labeling requests interleave,
// and when the dust settles the incrementally-grown lattice must be
// byte-identical (concept.WriteSnapshot) to a from-scratch batch build
// over the same final trace corpus.
func TestConcurrentStreamsLatticeMatchesBatch(t *testing.T) {
	const nStreams = 48
	srv, c := newTestServer(t, Config{})
	created := c.mustCreate(violationFixture(t))
	sid := created.SessionID

	// Each stream runs a scripted scenario with two violations: a
	// stream-distinct poisoned window (distinct class per stream) plus a
	// shared incomplete tail (one class, multiplicity nStreams).
	var wg sync.WaitGroup
	errs := make(chan error, nStreams*2)
	for g := 0; g < nStreams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opened := c.openStream(sid, stdioSpec, 8)
			reads := make([]string, 0, g%4+2)
			reads = append(reads, "X = popen()")
			for r := 0; r < g%4; r++ {
				reads = append(reads, "fread(X)")
			}
			reads = append(reads, "X = fopen()") // violation: window differs per g%4
			var ev apiv1.StreamEventsResponse
			if code := c.postRaw("/v1/streams/"+opened.StreamID+"/events", ndjson(reads...), &ev); code != 200 {
				errs <- fmt.Errorf("stream %d: events status %d", g, code)
				return
			}
			if len(ev.Violations) != 1 {
				errs <- fmt.Errorf("stream %d: %d violations, want 1", g, len(ev.Violations))
				return
			}
			// Leave the protocol open: finalize raises the shared
			// incomplete violation "X = popen(); fwrite(X)".
			if code := c.postRaw("/v1/streams/"+opened.StreamID+"/events", ndjson("X = popen()", "fwrite(X)"), &ev); code != 200 {
				errs <- fmt.Errorf("stream %d: second batch status %d", g, code)
				return
			}
			var closed apiv1.CloseStreamResponse
			if code := c.do("DELETE", "/v1/streams/"+opened.StreamID, nil, &closed); code != 200 {
				errs <- fmt.Errorf("stream %d: close status %d", g, code)
				return
			}
			if closed.Violation == nil || !closed.Violation.Incomplete {
				errs <- fmt.Errorf("stream %d: close violation = %+v", g, closed.Violation)
			}
		}(g)
	}
	// Labeling traffic interleaves with the violation appends.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*created.NumTraces; i++ {
				idx := i % created.NumTraces
				label := "good"
				if g%2 == 1 {
					label = "bad"
				}
				var lr apiv1.LabelResponse
				if code := c.do("POST", "/v1/sessions/"+sid+"/label", apiv1.LabelRequest{Trace: &idx, Label: label}, &lr); code != 200 {
					errs <- fmt.Errorf("labeler %d: status %d", g, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// 4 distinct poisoned-window classes + 1 shared incomplete class.
	var info apiv1.SessionInfo
	if code := c.do("GET", "/v1/sessions/"+sid, nil, &info); code != 200 {
		t.Fatal("info")
	}
	if info.NumTraces != created.NumTraces+5 {
		t.Fatalf("session has %d classes, want %d", info.NumTraces, created.NumTraces+5)
	}

	// Byte-identity: serialize the streamed session's corpus, rebuild a
	// batch session over it from scratch, compare lattice snapshots.
	res, ok := srv.store.resolve(sid)
	if !ok {
		t.Fatal("session vanished")
	}
	res.entry.mu.Lock()
	sess := res.entry.session
	var corpus strings.Builder
	if err := trace.Write(&corpus, sess.Set()); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	if err := concept.WriteSnapshot(&streamed, sess.Lattice()); err != nil {
		t.Fatal(err)
	}
	ref := sess.Ref()
	res.entry.mu.Unlock()

	set, err := trace.Read(strings.NewReader(corpus.String()))
	if err != nil {
		t.Fatal(err)
	}
	// Multiplicities carried over: the shared incomplete class counts one
	// trace per stream.
	shared := set.ClassOfKey("X = popen(); fwrite(X)")
	if shared < 0 || set.Class(shared).Count != nStreams {
		t.Fatalf("shared violation class count = %d, want %d", set.Class(shared).Count, nStreams)
	}
	batch, err := cable.NewSession(set, ref)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt bytes.Buffer
	if err := concept.WriteSnapshot(&rebuilt, batch.Lattice()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), rebuilt.Bytes()) {
		t.Fatalf("streamed lattice differs from batch rebuild: %d vs %d bytes",
			streamed.Len(), rebuilt.Len())
	}
}

// TestStreamPersistRestart: open streams ride the WAL (record type 3) and
// a crash-restart resumes them mid-protocol — frontier, window, counters,
// and spec binding intact — while closed streams stay closed (tombstone).
func TestStreamPersistRestart(t *testing.T) {
	dir := t.TempDir()
	srv, c := newTestServer(t, Config{SnapshotDir: dir})
	created := c.mustCreate(violationFixture(t))
	sid := created.SessionID

	a := c.openStream(sid, stdioSpec, 8)
	b := c.openStream(sid, "", 0)

	// Stream A: one violation, then stop mid-protocol (state 1, window
	// holding the two events since the reset).
	var ev apiv1.StreamEventsResponse
	if code := c.postRaw("/v1/streams/"+a.StreamID+"/events",
		ndjson("X = popen()", "X = fopen()", "X = popen()", "fread(X)"), &ev); code != 200 {
		t.Fatalf("feed: %d", code)
	}
	if len(ev.Violations) != 1 {
		t.Fatalf("violations = %+v", ev.Violations)
	}
	// Stream B closes before the crash: its tombstone must win on replay.
	if code := c.do("DELETE", "/v1/streams/"+b.StreamID, nil, nil); code != 200 {
		t.Fatalf("close b: %d", code)
	}
	// Snapshot-then-crash is the adversarial order: writeSnap truncates
	// the WAL, so A's frontier survives only if the snapshot path
	// re-appends stream records.
	if _, err := srv.SaveSnapshots(); err != nil {
		t.Fatal(err)
	}

	_, c2 := restartServer(t, dir, obs.New())
	var info apiv1.StreamInfo
	if code := c2.do("GET", "/v1/streams/"+a.StreamID, nil, &info); code != 200 {
		t.Fatalf("stream not restored: %d", code)
	}
	if info.Events != 4 || info.Violations != 1 || info.Spec != "stdio" || info.Accepting {
		t.Fatalf("restored stream = %+v", info)
	}
	if code := c2.do("GET", "/v1/streams/"+b.StreamID, nil, nil); code != http.StatusNotFound {
		t.Errorf("closed stream resurrected: %d", code)
	}

	// The pre-crash violation is a class in the restored session.
	var traces apiv1.TraceList
	if code := c2.do("GET", "/v1/sessions/"+sid+"/traces", nil, &traces); code != 200 {
		t.Fatal("traces")
	}
	found := false
	for _, tc := range traces.Traces {
		found = found || tc.Key == "X = popen(); X = fopen()"
	}
	if !found {
		t.Fatal("pre-crash violation class missing after restore")
	}

	// The restored frontier is live: pclose completes the protocol, so a
	// finalize right after is clean.
	if code := c2.postRaw("/v1/streams/"+a.StreamID+"/events", ndjson("pclose(X)"), &ev); code != 200 {
		t.Fatalf("feed after restore: %d", code)
	}
	var closed apiv1.CloseStreamResponse
	if code := c2.do("DELETE", "/v1/streams/"+a.StreamID, nil, &closed); code != 200 {
		t.Fatalf("close after restore: %d", code)
	}
	if closed.Violation != nil || closed.Events != 5 || closed.ViolationTotal != 1 {
		t.Fatalf("close after restore = %+v (violation %+v)", closed, closed.Violation)
	}
}

// reusedResponse is a ResponseWriter that keeps its header map and body
// buffer across requests, so that an allocation count of a request sees
// the server's allocations only.
type reusedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *reusedResponse) Header() http.Header         { return w.header }
func (w *reusedResponse) WriteHeader(status int)      { w.status = status }
func (w *reusedResponse) Write(p []byte) (int, error) { return w.body.Write(p) }

// rewindBody is a request body that Reset replays.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestStreamBatchAllocs pins what one clean 32-event batch allocates
// through ServeHTTP with persistence and a request deadline on, with its
// request and response writer reused: the route's path match, the body
// limit, the WAL record, and the response value the encoder takes. The
// count is the fewest over several batches, because under -race
// sync.Pool drops a quarter of what it is given, so encoding/json's
// pooled encoder states are allocated again at random.
func TestStreamBatchAllocs(t *testing.T) {
	const maxAllocs = 4
	srv := New(Config{RequestTimeout: 30 * time.Second, SnapshotDir: t.TempDir()})
	h := srv.Handler()
	call := func(method, path string, body any, out any) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
		if rec.Code/100 != 2 {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatal(err)
		}
	}
	var created apiv1.CreateSessionResponse
	call("POST", "/v1/sessions", violationFixture(t), &created)
	var opened apiv1.OpenStreamResponse
	call("POST", "/v1/streams", apiv1.OpenStreamRequest{SessionID: created.SessionID, Spec: stdioSpec}, &opened)

	events := []string{"X = popen()"}
	for len(events) < 31 {
		events = append(events, "fread(X)")
	}
	src := []byte(ndjson(append(events, "pclose(X)")...))
	body := &rewindBody{}
	req := httptest.NewRequest("POST", "/v1/streams/"+opened.StreamID+"/events", body)
	w := &reusedResponse{header: http.Header{}}
	batch := func() {
		body.Reset(src)
		w.body.Reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || !bytes.Contains(w.body.Bytes(), []byte(`"accepted":32`)) {
			t.Fatalf("batch: status %d: %s", w.status, w.body.Bytes())
		}
	}
	fewest := math.Inf(1)
	for round := 0; round < 10; round++ {
		fewest = min(fewest, testing.AllocsPerRun(1, batch))
	}
	if fewest > maxAllocs {
		t.Fatalf("a clean 32-event batch allocates %v objects, want at most %d", fewest, maxAllocs)
	}
}
