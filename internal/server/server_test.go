package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/server/apiv1"
	"repro/internal/trace"
)

// violationFixture serializes the Section 2.1 violation traces and a
// one-state reference FA into the text formats the API accepts.
func violationFixture(t testing.TB) apiv1.CreateSessionRequest {
	t.Helper()
	set := trace.NewSet(
		trace.ParseEvents("v0", "X = popen()", "pclose(X)"),
		trace.ParseEvents("v1", "X = popen()", "fread(X)", "pclose(X)"),
		trace.ParseEvents("v2", "X = popen()", "fwrite(X)", "pclose(X)"),
		trace.ParseEvents("v3", "X = popen()", "fread(X)"),
		trace.ParseEvents("v4", "X = fopen()", "fread(X)"),
		trace.ParseEvents("v5", "X = fopen()", "pclose(X)"),
		trace.ParseEvents("v6", "X = popen()", "pclose(X)"),
	)
	return fixtureFrom(t, set)
}

func fixtureFrom(t testing.TB, set *trace.Set) apiv1.CreateSessionRequest {
	t.Helper()
	var traces, ref strings.Builder
	if err := trace.Write(&traces, set); err != nil {
		t.Fatal(err)
	}
	if err := fa.Write(&ref, fa.FromTraces(set.Alphabet())); err != nil {
		t.Fatal(err)
	}
	return apiv1.CreateSessionRequest{Traces: traces.String(), RefFA: ref.String()}
}

// client wraps an httptest server with JSON helpers.
type client struct {
	t    testing.TB
	base string
	http *http.Client
}

func newTestServer(t testing.TB, cfg Config) (*Server, *client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, &client{t: t, base: ts.URL, http: ts.Client()}
}

// do issues a request and decodes the response into out (unless nil),
// returning the status code.
func (c *client) do(method, path string, body, out any) int {
	c.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			c.t.Fatalf("%s %s: decoding %q: %v", method, path, data, err)
		}
	}
	if out != nil && resp.StatusCode >= 300 {
		if e, ok := out.(*apiv1.Error); ok {
			_ = json.Unmarshal(data, e)
		}
	}
	return resp.StatusCode
}

func (c *client) mustCreate(req apiv1.CreateSessionRequest) apiv1.CreateSessionResponse {
	c.t.Helper()
	var resp apiv1.CreateSessionResponse
	if code := c.do("POST", "/v1/sessions", req, &resp); code != http.StatusCreated {
		c.t.Fatalf("create session: status %d", code)
	}
	return resp
}

func TestHappyPath(t *testing.T) {
	// The full Section 2.1 walkthrough over the wire: create, explore the
	// lattice, label, focus, merge back, export.
	_, c := newTestServer(t, Config{CacheSize: 4})
	created := c.mustCreate(violationFixture(t))
	if created.NumTraces != 6 {
		t.Fatalf("NumTraces = %d, want 6 (v0/v6 collapse)", created.NumTraces)
	}
	if created.CacheHit {
		t.Error("first build reported a cache hit")
	}

	var concepts apiv1.ConceptList
	if code := c.do("GET", "/v1/sessions/"+created.SessionID+"/concepts", nil, &concepts); code != 200 {
		t.Fatalf("list concepts: %d", code)
	}
	if len(concepts.Concepts) != created.NumConcepts {
		t.Fatalf("concept list has %d entries, lattice has %d", len(concepts.Concepts), created.NumConcepts)
	}
	if concepts.Concepts[0].ID != created.Top {
		t.Errorf("top-down order starts at c%d, top is c%d", concepts.Concepts[0].ID, created.Top)
	}

	// Single-concept view includes transitions.
	var top apiv1.Concept
	if code := c.do("GET", fmt.Sprintf("/v1/sessions/%s/concepts/%d", created.SessionID, created.Top), nil, &top); code != 200 {
		t.Fatalf("get concept: %d", code)
	}
	if top.State != "Unlabeled" {
		t.Errorf("fresh top state = %q", top.State)
	}

	// Label everything good via the top concept.
	var labeled apiv1.LabelResponse
	topID := created.Top
	if code := c.do("POST", "/v1/sessions/"+created.SessionID+"/label", apiv1.LabelRequest{
		Concept: &topID, Selector: &apiv1.Selector{Mode: "unlabeled"}, Label: "good",
	}, &labeled); code != 200 {
		t.Fatalf("label: %d", code)
	}
	if labeled.Labeled != 6 {
		t.Fatalf("labeled %d classes, want 6", labeled.Labeled)
	}

	// Relabel one trace bad, then focus the whole session and flip it back
	// through the sub-session.
	zero := 0
	if code := c.do("POST", "/v1/sessions/"+created.SessionID+"/label", apiv1.LabelRequest{
		Trace: &zero, Label: "bad",
	}, &labeled); code != 200 {
		t.Fatalf("label trace: %d", code)
	}
	fx := violationFixture(t)
	var focus apiv1.FocusResponse
	if code := c.do("POST", "/v1/sessions/"+created.SessionID+"/focus", apiv1.FocusRequest{
		Concept: created.Top, RefFA: fx.RefFA,
	}, &focus); code != http.StatusCreated {
		t.Fatalf("focus: %d", code)
	}
	var fInfo apiv1.SessionInfo
	if code := c.do("GET", "/v1/sessions/"+focus.SessionID, nil, &fInfo); code != 200 || !fInfo.Focus {
		t.Fatalf("focus session info: code %d, focus %v", code, fInfo.Focus)
	}
	fTop := findTop(t, c, focus.SessionID)
	if code := c.do("POST", "/v1/sessions/"+focus.SessionID+"/label", apiv1.LabelRequest{
		Concept: &fTop, Selector: &apiv1.Selector{Mode: "all"}, Label: "good",
	}, &labeled); code != 200 {
		t.Fatalf("label in focus: %d", code)
	}
	var ended apiv1.EndFocusResponse
	if code := c.do("POST", "/v1/sessions/"+focus.SessionID+"/end", nil, &ended); code != 200 {
		t.Fatalf("end focus: %d", code)
	}
	if ended.Merged != 1 {
		t.Fatalf("merged %d labels, want 1 (only v0 disagreed)", ended.Merged)
	}
	// The ended focus ID is gone.
	if code := c.do("GET", "/v1/sessions/"+focus.SessionID, nil, nil); code != http.StatusNotFound {
		t.Errorf("ended focus still resolves: %d", code)
	}

	var export apiv1.LabelsExport
	if code := c.do("GET", "/v1/sessions/"+created.SessionID+"/labels", nil, &export); code != 200 {
		t.Fatalf("export: %d", code)
	}
	if len(export.Labels) != 6 {
		t.Fatalf("exported %d labels, want 6", len(export.Labels))
	}
	for _, l := range export.Labels {
		if l.Label != "good" {
			t.Errorf("label %q on %q, want good everywhere after merge", l.Label, l.Key)
		}
	}

	var info apiv1.SessionInfo
	if code := c.do("GET", "/v1/sessions/"+created.SessionID, nil, &info); code != 200 {
		t.Fatalf("get session: %d", code)
	}
	if !info.Done || info.Labeled != 6 {
		t.Errorf("session info = %+v, want done with 6 labeled", info)
	}

	if code := c.do("DELETE", "/v1/sessions/"+created.SessionID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code := c.do("GET", "/v1/sessions/"+created.SessionID, nil, nil); code != http.StatusNotFound {
		t.Errorf("deleted session still resolves: %d", code)
	}
}

func findTop(t *testing.T, c *client, sid string) int {
	t.Helper()
	var concepts apiv1.ConceptList
	if code := c.do("GET", "/v1/sessions/"+sid+"/concepts", nil, &concepts); code != 200 {
		t.Fatalf("list concepts: %d", code)
	}
	return concepts.Concepts[0].ID
}

func TestConcurrentLabeling(t *testing.T) {
	// Many goroutines hammer one session (plus a second session alongside)
	// with labels; run under -race this is the data-race acceptance check,
	// and the final export must account for every class exactly once.
	_, c := newTestServer(t, Config{CacheSize: 4})
	created := c.mustCreate(violationFixture(t))
	other := c.mustCreate(fixtureFrom(t, trace.NewSet(
		trace.ParseEvents("w0", "a()", "b()"),
		trace.ParseEvents("w1", "a()"),
	)))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := "good"
			if g%2 == 1 {
				label = "bad"
			}
			for i := 0; i < created.NumTraces; i++ {
				idx := (i + g) % created.NumTraces
				var resp apiv1.LabelResponse
				code := c.do("POST", "/v1/sessions/"+created.SessionID+"/label", apiv1.LabelRequest{
					Trace: &idx, Label: label,
				}, &resp)
				if code != 200 {
					t.Errorf("goroutine %d: label trace %d: status %d", g, idx, code)
				}
			}
			oTop := findTop(t, c, other.SessionID)
			var resp apiv1.LabelResponse
			if code := c.do("POST", "/v1/sessions/"+other.SessionID+"/label", apiv1.LabelRequest{
				Concept: &oTop, Selector: &apiv1.Selector{Mode: "all"}, Label: label,
			}, &resp); code != 200 {
				t.Errorf("goroutine %d: label other session: status %d", g, code)
			}
		}(g)
	}
	wg.Wait()

	var export apiv1.LabelsExport
	if code := c.do("GET", "/v1/sessions/"+created.SessionID+"/labels", nil, &export); code != 200 {
		t.Fatalf("export: %d", code)
	}
	if len(export.Labels) != created.NumTraces {
		t.Fatalf("exported %d labels, want %d: every class labeled exactly once", len(export.Labels), created.NumTraces)
	}
	for _, l := range export.Labels {
		if l.Label != "good" && l.Label != "bad" {
			t.Errorf("class %q has corrupted label %q", l.Key, l.Label)
		}
	}
}

// addTraces posts a batch of traces to a session and requires success.
func (c *client) addTraces(sid string, set *trace.Set) apiv1.AddTracesResponse {
	c.t.Helper()
	var text strings.Builder
	if err := trace.Write(&text, set); err != nil {
		c.t.Fatal(err)
	}
	var resp apiv1.AddTracesResponse
	if code := c.do("POST", "/v1/sessions/"+sid+"/traces", apiv1.AddTracesRequest{Traces: text.String()}, &resp); code != 200 {
		c.t.Fatalf("add traces: status %d", code)
	}
	return resp
}

func TestAddTraces(t *testing.T) {
	_, c := newTestServer(t, Config{CacheSize: 4})
	created := c.mustCreate(violationFixture(t))
	sid := created.SessionID

	// A duplicate of an existing class only bumps its multiplicity.
	dup := c.addTraces(sid, trace.NewSet(trace.ParseEvents("v7", "X = popen()", "pclose(X)")))
	if dup.Added != 1 || dup.NewClasses != 0 || dup.NumTraces != created.NumTraces {
		t.Fatalf("duplicate add = %+v, want 1 added, 0 new classes, %d classes", dup, created.NumTraces)
	}

	// A novel trace becomes a new, unlabeled class and grows the lattice
	// incrementally.
	novel := c.addTraces(sid, trace.NewSet(trace.ParseEvents("v8", "X = fopen()", "fwrite(X)", "pclose(X)")))
	if novel.NewClasses != 1 || novel.NumTraces != created.NumTraces+1 {
		t.Fatalf("novel add = %+v, want a new class", novel)
	}
	if novel.NumConcepts < created.NumConcepts {
		t.Fatalf("lattice shrank on add: %d -> %d", created.NumConcepts, novel.NumConcepts)
	}
	var traces apiv1.TraceList
	if code := c.do("GET", "/v1/sessions/"+sid+"/traces", nil, &traces); code != 200 {
		t.Fatalf("list traces: %d", code)
	}
	last := traces.Traces[len(traces.Traces)-1]
	if last.Key != "X = fopen(); fwrite(X); pclose(X)" || last.Label != "" {
		t.Fatalf("new class = %+v, want the added trace, unlabeled", last)
	}

	// The lattice over the grown context must match a from-scratch build
	// of the same corpus: create a second session over (fixture + v8).
	grown := trace.NewSet(
		trace.ParseEvents("v0", "X = popen()", "pclose(X)"),
		trace.ParseEvents("v1", "X = popen()", "fread(X)", "pclose(X)"),
		trace.ParseEvents("v2", "X = popen()", "fwrite(X)", "pclose(X)"),
		trace.ParseEvents("v3", "X = popen()", "fread(X)"),
		trace.ParseEvents("v4", "X = fopen()", "fread(X)"),
		trace.ParseEvents("v5", "X = fopen()", "pclose(X)"),
		trace.ParseEvents("v8", "X = fopen()", "fwrite(X)", "pclose(X)"),
	)
	var fx2 apiv1.CreateSessionRequest
	fx2.RefFA = violationFixture(t).RefFA
	var text strings.Builder
	if err := trace.Write(&text, grown); err != nil {
		t.Fatal(err)
	}
	fx2.Traces = text.String()
	rebuilt := c.mustCreate(fx2)
	if rebuilt.NumConcepts != novel.NumConcepts {
		t.Fatalf("incremental lattice has %d concepts, rebuild has %d", novel.NumConcepts, rebuilt.NumConcepts)
	}

	// A trace the reference FA rejects fails the whole batch atomically:
	// well-formed input, semantically invalid → validation_failed.
	var apiErr apiv1.Error
	bad := trace.NewSet(
		trace.ParseEvents("ok", "X = popen()"),
		trace.ParseEvents("nope", "launch_missiles(X)"),
	)
	text.Reset()
	if err := trace.Write(&text, bad); err != nil {
		t.Fatal(err)
	}
	if code := c.do("POST", "/v1/sessions/"+sid+"/traces", apiv1.AddTracesRequest{Traces: text.String()}, &apiErr); code != 422 {
		t.Fatalf("rejected trace: status %d, want 422", code)
	}
	if apiErr.Code != "validation_failed" {
		t.Fatalf("rejected trace: code %q, want validation_failed", apiErr.Code)
	}
	var info apiv1.SessionInfo
	if code := c.do("GET", "/v1/sessions/"+sid, nil, &info); code != 200 {
		t.Fatal("info")
	}
	if info.NumTraces != novel.NumTraces {
		t.Fatalf("failed batch mutated the session: %d classes, want %d", info.NumTraces, novel.NumTraces)
	}

	// Adds target top-level sessions only.
	var focus apiv1.FocusResponse
	if code := c.do("POST", "/v1/sessions/"+sid+"/focus", apiv1.FocusRequest{
		Concept: findTop(t, c, sid), RefFA: violationFixture(t).RefFA,
	}, &focus); code != http.StatusCreated {
		t.Fatalf("focus: %d", code)
	}
	text.Reset()
	if err := trace.Write(&text, trace.NewSet(trace.ParseEvents("v9", "X = popen()"))); err != nil {
		t.Fatal(err)
	}
	if code := c.do("POST", "/v1/sessions/"+focus.SessionID+"/traces", apiv1.AddTracesRequest{Traces: text.String()}, &apiErr); code != 400 {
		t.Fatalf("add to focus session: status %d, want 400", code)
	}
}

// TestCacheNotPoisonedByIncrementalAdd is the staleness regression test:
// growing one session incrementally must not mutate the lattice the cache
// serves, so a re-upload of the original corpus still gets the original
// lattice (and still hits the cache).
func TestCacheNotPoisonedByIncrementalAdd(t *testing.T) {
	m := obs.New()
	srv, c := newTestServer(t, Config{CacheSize: 4, Metrics: m})
	fx := violationFixture(t)
	first := c.mustCreate(fx)

	// Mutate the first session: its lattice was just stored in the cache,
	// so this must detach a private copy before touching anything.
	grown := c.addTraces(first.SessionID, trace.NewSet(
		trace.ParseEvents("v8", "X = fopen()", "fwrite(X)", "pclose(X)")))
	if grown.NumTraces != first.NumTraces+1 {
		t.Fatalf("add: %+v", grown)
	}

	// Re-upload of the pristine corpus: must hit the cache AND see the
	// unmutated lattice.
	second := c.mustCreate(fx)
	if !second.CacheHit {
		t.Error("re-upload after incremental add missed the cache")
	}
	if second.NumTraces != first.NumTraces || second.NumConcepts != first.NumConcepts {
		t.Fatalf("cache served a mutated lattice: %+v, want the original %+v", second, first)
	}
	if hits := m.Counter("server.cache.hits").Value(); hits != 1 {
		t.Errorf("server.cache.hits = %d, want 1", hits)
	}
	if ev := m.Counter("server.cache.evictions").Value(); ev != 0 {
		t.Errorf("server.cache.evictions = %d, want 0 (mutation must not evict)", ev)
	}
	if srv.cache.Len() != 1 {
		t.Errorf("cache holds %d lattices, want 1", srv.cache.Len())
	}

	// And the mutated session keeps its own private growth.
	var info apiv1.SessionInfo
	if code := c.do("GET", "/v1/sessions/"+first.SessionID, nil, &info); code != 200 {
		t.Fatal("info")
	}
	if info.NumTraces != first.NumTraces+1 {
		t.Errorf("mutated session lost its added class: %d", info.NumTraces)
	}
}

func TestLatticeCacheHit(t *testing.T) {
	m := obs.New()
	srv, c := newTestServer(t, Config{CacheSize: 4, Metrics: m})
	fx := violationFixture(t)
	first := c.mustCreate(fx)
	second := c.mustCreate(fx)
	if first.CacheHit {
		t.Error("first create hit the cache")
	}
	if !second.CacheHit {
		t.Error("identical re-upload missed the cache")
	}
	if first.NumConcepts != second.NumConcepts || first.Top != second.Top {
		t.Errorf("cached lattice differs: %+v vs %+v", first, second)
	}
	if srv.cache.Len() != 1 {
		t.Errorf("cache holds %d lattices, want 1", srv.cache.Len())
	}
	if hits := m.Counter("server.cache.hits").Value(); hits != 1 {
		t.Errorf("server.cache.hits = %d, want 1", hits)
	}
	// The two sessions share a lattice but label independently.
	top := first.Top
	var resp apiv1.LabelResponse
	if code := c.do("POST", "/v1/sessions/"+first.SessionID+"/label", apiv1.LabelRequest{
		Concept: &top, Selector: &apiv1.Selector{Mode: "all"}, Label: "bad",
	}, &resp); code != 200 {
		t.Fatalf("label first: %d", code)
	}
	var info apiv1.SessionInfo
	if code := c.do("GET", "/v1/sessions/"+second.SessionID, nil, &info); code != 200 {
		t.Fatalf("info second: %d", code)
	}
	if info.Labeled != 0 {
		t.Errorf("labeling session 1 leaked %d labels into session 2", info.Labeled)
	}

	// A different reference FA over the same traces is a different key.
	var refB strings.Builder
	b := fa.NewBuilder("other")
	st := b.State()
	b.Start(st)
	b.Accept(st)
	b.WildcardEdge(st, st)
	if err := fa.Write(&refB, b.MustBuild()); err != nil {
		t.Fatal(err)
	}
	third := c.mustCreate(apiv1.CreateSessionRequest{Traces: fx.Traces, RefFA: refB.String()})
	if third.CacheHit {
		t.Error("different reference FA hit the cache")
	}
}

func TestCacheEviction(t *testing.T) {
	m := obs.New()
	srv, c := newTestServer(t, Config{CacheSize: 1, Metrics: m})
	fxA := violationFixture(t)
	fxB := fixtureFrom(t, trace.NewSet(
		trace.ParseEvents("w0", "a()", "b()"),
		trace.ParseEvents("w1", "b()"),
	))
	c.mustCreate(fxA)
	c.mustCreate(fxB) // evicts A
	if srv.cache.Len() != 1 {
		t.Fatalf("cache size %d, want 1", srv.cache.Len())
	}
	if ev := m.Counter("server.cache.evictions").Value(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if again := c.mustCreate(fxA); again.CacheHit {
		t.Error("evicted lattice reported a cache hit")
	}
}

// combinatorialSet builds all 3-element subsets of n distinct events as
// traces: with n=26 that is 2600 classes and a ~2950-concept lattice, a
// build measured in tens of milliseconds — long enough to cancel
// mid-flight even with the compiled FA simulator on the fast path, small
// enough to keep the test quick when it runs to completion on a slow day.
func combinatorialSet(n int) *trace.Set {
	var traces []trace.Trace
	id := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				traces = append(traces, trace.ParseEvents(
					fmt.Sprintf("t%d", id),
					fmt.Sprintf("e%d()", i), fmt.Sprintf("e%d()", j), fmt.Sprintf("e%d()", k)))
				id++
			}
		}
	}
	return trace.NewSet(traces...)
}

func TestMidBuildCancellation(t *testing.T) {
	// A request deadline far shorter than the lattice build must abort the
	// build between work items and surface the timeout envelope, leaving no
	// half-registered session behind.
	fx := fixtureFrom(t, combinatorialSet(26))

	srv, c := newTestServer(t, Config{RequestTimeout: time.Millisecond, CacheSize: 4})
	var apiErr apiv1.Error
	code := c.do("POST", "/v1/sessions", fx, &apiErr)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (build too fast? grow the fixture)", code)
	}
	if apiErr.Code != "deadline" {
		t.Errorf("error code = %q, want deadline", apiErr.Code)
	}
	if n := len(srv.store.list()); n != 0 {
		t.Errorf("%d sessions registered after cancelled build", n)
	}
	if srv.cache.Len() != 0 {
		t.Errorf("cancelled build populated the cache")
	}
}

// TestErrorMapping pins the v1 error contract: each failure mode maps to
// a stable (status, code) pair. Codes are API surface — changing one is a
// breaking change, so every stable code gets a row here. The deadline
// (504) mapping is exercised by TestMidBuildCancellation, which needs a
// slow build to trigger it.
func TestErrorMapping(t *testing.T) {
	_, c := newTestServer(t, Config{CacheSize: 4})
	created := c.mustCreate(violationFixture(t))
	sid := created.SessionID
	bad := 9999

	rejected := apiv1.AddTracesRequest{
		Traces: "trace nope\n  launch_missiles(X)\nend\n",
	}
	cases := []struct {
		name     string
		method   string
		path     string
		body     any
		status   int
		code     string
		wantLine int
	}{
		{"unknown session", "GET", "/v1/sessions/deadbeef", nil, 404, "not_found", 0},
		{"bad concept id", "GET", "/v1/sessions/" + sid + "/concepts/9999", nil, 404, "not_found", 0},
		{"label bad trace", "POST", "/v1/sessions/" + sid + "/label",
			apiv1.LabelRequest{Trace: &bad, Label: "good"}, 404, "not_found", 0},
		{"label without target", "POST", "/v1/sessions/" + sid + "/label",
			apiv1.LabelRequest{Label: "good"}, 400, "bad_request", 0},
		{"malformed traces", "POST", "/v1/sessions",
			apiv1.CreateSessionRequest{Traces: "trace x\nnot an event\nend\n", RefFA: "gibberish"}, 400, "bad_request", 2},
		{"bad selector", "POST", "/v1/sessions/" + sid + "/label",
			apiv1.LabelRequest{Concept: &created.Top, Selector: &apiv1.Selector{Mode: "sideways"}, Label: "good"}, 400, "bad_request", 0},
		{"end non-focus", "POST", "/v1/sessions/" + sid + "/end", nil, 404, "not_found", 0},
		{"suggest unmixed concept", "POST", "/v1/sessions/" + sid + "/suggest",
			apiv1.SuggestRequest{Concept: created.Top}, 409, "session_busy", 0},
		{"ref-rejected trace", "POST", "/v1/sessions/" + sid + "/traces",
			rejected, 422, "validation_failed", 0},
		{"unknown stream", "GET", "/v1/streams/deadbeef", nil, 404, "not_found", 0},
		{"stream on unknown session", "POST", "/v1/streams",
			apiv1.OpenStreamRequest{SessionID: "deadbeef"}, 404, "not_found", 0},
		{"stream without session", "POST", "/v1/streams",
			apiv1.OpenStreamRequest{}, 400, "bad_request", 0},
		{"bad pagination limit", "GET", "/v1/sessions?limit=-1", nil, 400, "bad_request", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var apiErr apiv1.Error
			got := c.do(tc.method, tc.path, tc.body, &apiErr)
			if got != tc.status || apiErr.Code != tc.code {
				t.Errorf("status %d code %q, want %d %q", got, apiErr.Code, tc.status, tc.code)
			}
			if apiErr.Line != tc.wantLine {
				t.Errorf("line = %d, want %d (message %q)", apiErr.Line, tc.wantLine, apiErr.Message)
			}
			if apiErr.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestCreateSessionWorkersBound pins the v1 workers field: a negative
// value gets the bad_request envelope, and any other value is ignored, so
// a huge one builds the lattice the default builds.
func TestCreateSessionWorkersBound(t *testing.T) {
	_, c := newTestServer(t, Config{})
	fx := fixtureFrom(t, combinatorialSet(10))
	fx.Workers = -1
	var apiErr apiv1.Error
	if code := c.do("POST", "/v1/sessions", fx, &apiErr); code != http.StatusBadRequest || apiErr.Code != "bad_request" {
		t.Fatalf("workers -1: status %d code %q, want 400 bad_request", code, apiErr.Code)
	}
	fx.Workers = 0
	want := c.mustCreate(fx)
	fx.Workers = 1 << 20
	got := c.mustCreate(fx)
	if got.NumConcepts != want.NumConcepts {
		t.Fatalf("workers 1<<20: %d concepts, workers 0 built %d", got.NumConcepts, want.NumConcepts)
	}
}

func TestSuggestRoundTrip(t *testing.T) {
	// Label a mixed concept good/bad, ask for a template, and feed the
	// suggested FA straight back into a focus request.
	_, c := newTestServer(t, Config{CacheSize: 4})
	created := c.mustCreate(fixtureFrom(t, trace.NewSet(
		trace.ParseEvents("t0", "open()", "read()", "close()"),
		trace.ParseEvents("t1", "open()", "close()", "read()"),
	)))
	zero, one := 0, 1
	var lr apiv1.LabelResponse
	if code := c.do("POST", "/v1/sessions/"+created.SessionID+"/label", apiv1.LabelRequest{Trace: &zero, Label: "good"}, &lr); code != 200 {
		t.Fatalf("label: %d", code)
	}
	if code := c.do("POST", "/v1/sessions/"+created.SessionID+"/label", apiv1.LabelRequest{Trace: &one, Label: "bad"}, &lr); code != 200 {
		t.Fatalf("label: %d", code)
	}
	var sug apiv1.SuggestResponse
	if code := c.do("POST", "/v1/sessions/"+created.SessionID+"/suggest", apiv1.SuggestRequest{Concept: created.Top}, &sug); code != 200 {
		t.Fatalf("suggest: %d", code)
	}
	if sug.Template == "" || sug.RefFA == "" {
		t.Fatalf("empty suggestion: %+v", sug)
	}
	var focus apiv1.FocusResponse
	if code := c.do("POST", "/v1/sessions/"+created.SessionID+"/focus", apiv1.FocusRequest{
		Concept: created.Top, RefFA: sug.RefFA,
	}, &focus); code != http.StatusCreated {
		t.Fatalf("focus on suggested FA: %d", code)
	}
}

func TestIdleEviction(t *testing.T) {
	srv, c := newTestServer(t, Config{CacheSize: 4, IdleTimeout: time.Minute})
	created := c.mustCreate(violationFixture(t))
	kept := c.mustCreate(fixtureFrom(t, trace.NewSet(trace.ParseEvents("w0", "a()"))))

	// Rewind the first session's clock past the idle horizon; the second
	// stays fresh via a touch under the advanced clock.
	base := time.Now()
	srv.store.now = func() time.Time { return base.Add(2 * time.Minute) }
	if code := c.do("GET", "/v1/sessions/"+kept.SessionID, nil, nil); code != 200 {
		t.Fatalf("touch: %d", code)
	}
	if n := srv.EvictIdleNow(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if code := c.do("GET", "/v1/sessions/"+created.SessionID, nil, nil); code != http.StatusNotFound {
		t.Errorf("idle session survived eviction: %d", code)
	}
	if code := c.do("GET", "/v1/sessions/"+kept.SessionID, nil, nil); code != 200 {
		t.Errorf("fresh session was evicted: %d", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	m := obs.New()
	_, c := newTestServer(t, Config{CacheSize: 4, Metrics: m})
	c.mustCreate(violationFixture(t))
	c.mustCreate(violationFixture(t)) // cache hit

	resp, err := c.http.Get(c.base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"server.req.create_session", "server.latency.create_session",
		"server.cache.hits", "server.sessions.live",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, text)
		}
	}
}

// A JSON body over maxJSONBody gets a 413 too_large envelope instead of
// being cut short into a 400 syntax error.
func TestJSONBodyOverLimit(t *testing.T) {
	_, c := newTestServer(t, Config{})
	body := io.MultiReader(strings.NewReader(`{"traces": "`), io.LimitReader(&cycleReader{unit: strings.Repeat("x", 4096)}, maxJSONBody))
	var apiErr apiv1.Error
	if code := c.postReader("/v1/sessions", body, &apiErr); code != http.StatusRequestEntityTooLarge || apiErr.Code != "too_large" {
		t.Fatalf("status %d, envelope %+v; want 413 too_large", code, apiErr)
	}
}
