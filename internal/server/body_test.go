package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/exp"
	"repro/internal/fa"
	"repro/internal/server/apiv1"
	"repro/internal/specs"
	"repro/internal/trace"
)

// decodeSeeds are bodies on which decodeBody must agree with decodeJSON:
// the encoding/json behaviours the scanner keeps, and the malformed
// bodies both refuse.
var decodeSeeds = []string{
	`{"traces":"trace t\n  open()\nend\n","ref_fa":"fa x\nstates 1\nstart 0\naccept 0\nend\n","workers":2}`,
	` { "traces" : "a" , "ref_fa" : "b" } `,
	`{}`,
	// Member names match case-insensitively after unescaping, under
	// bytes.EqualFold: ſ (U+017F) folds to s and the Kelvin sign (U+212A)
	// to k, whether the name carries them as JSON escapes or as UTF-8.
	`{"TRACES":"a","Ref_FA":"b","WORKERS":1}`,
	`{"tr\u0061ces":"a","ref\u005ffa":"b"}`,
	`{"trace\u017f":"a"}`,
	"{\"trace\u017f\":\"a\"}",
	`{"wor\u212aers":3}`,
	"{\"wor\u212aers\":3}",
	`{"ref_fa":"b"}`,
	// The last value of a repeated member wins; null leaves it as it was.
	`{"traces":"a","traces":"b"}`,
	`{"traces":"a","TRACES":null}`,
	`{"traces":null,"ref_fa":null,"workers":null}`,
	`null`,
	" \t\r\nnull\n",
	// Invalid UTF-8 and lone surrogates become U+FFFD, in place where
	// escapes before them left room and in a fresh slice where not.
	"{\"traces\":\"\xff\"}",
	"{\"traces\":\"a\xc3\"}",
	"{\"traces\":\"\\n\\n\\n\xff\xfe\"}",
	"{\"traces\":\"\xed\xa0\x80\"}",
	`{"traces":"\ud800"}`,
	`{"traces":"\udc00\ud800x"}`,
	`{"traces":"\ud800A"}`,
	`{"traces":"😀 😀"}`,
	`{"traces":"\ud800\u00zz"}`,
	`{"traces":"\u0000\"\\\/\b\f\n\r\t"}`,
	// workers takes integers that fit an int, and nothing else.
	`{"workers":-0}`,
	`{"workers":-1}`,
	`{"workers":1.0}`,
	`{"workers":1e1}`,
	`{"workers":1E+1}`,
	`{"workers":01}`,
	`{"workers":-}`,
	`{"workers":9223372036854775807}`,
	`{"workers":9223372036854775808}`,
	`{"workers":-9223372036854775808}`,
	`{"workers":-9223372036854775809}`,
	`{"workers":"1"}`,
	`{"workers":true}`,
	// Everything else is an error.
	``,
	`   `,
	`[]`,
	`"traces"`,
	`5`,
	`true`,
	`nul`,
	`nullx`,
	`{`,
	`{"traces"`,
	`{"traces":`,
	`{"traces":"a"`,
	`{"traces":"a",}`,
	`{,}`,
	`{"traces" "a"}`,
	`{"traces":"a" "ref_fa":"b"}`,
	`{"traces":1}`,
	`{"traces":true}`,
	`{"traces":["a"]}`,
	`{"traces":{"a":1}}`,
	`{"traces":nul}`,
	`{"traces":nullx}`,
	`{"traces":"\q"}`,
	`{"traces":"\'"}`,
	`{"traces":"\u12"}`,
	"{\"traces\":\"a\x01\"}",
	`{"trace":"a"}`,
	`{"":"a"}`,
	`{"extra":1}`,
	`{traces:"a"}`,
	"\xef\xbb\xbf{}",
	// Nothing but whitespace may follow the value.
	`{} x`,
	`{}{}`,
	`{}}`,
	`null null`,
	`{"traces":"a"} "b"`,
}

// FuzzDecodeMatchesOracle holds decodeBody to decodeJSON, its encoding/json
// oracle, on arbitrary bodies of both request types: the same request, or
// a 400 bad_request from both.
func FuzzDecodeMatchesOracle(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add(mustMarshal(f, violationFixture(f)))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesOracle(t, body, true)
		checkDecodeMatchesOracle(t, body, false)
	})
}

func checkDecodeMatchesOracle(t *testing.T, body []byte, create bool) {
	t.Helper()
	post := func() *http.Request { return httptest.NewRequest("POST", "/", bytes.NewReader(body)) }
	var want apiv1.CreateSessionRequest
	var wantErr error
	if create {
		wantErr = decodeJSON(httptest.NewRecorder(), post(), &want)
	} else {
		var add apiv1.AddTracesRequest
		wantErr = decodeJSON(httptest.NewRecorder(), post(), &add)
		want.Traces = add.Traces
	}
	got, err := decodeBody(httptest.NewRecorder(), post(), new(scratch), create)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("create %v, body %q: decodeBody err = %v, decodeJSON err = %v", create, body, err, wantErr)
	}
	if err != nil {
		for _, e := range []error{err, wantErr} {
			if status, code := classify(e); status != http.StatusBadRequest || code != "bad_request" {
				t.Fatalf("create %v, body %q: %v classifies as %d %s, want 400 bad_request", create, body, e, status, code)
			}
		}
		return
	}
	if string(got.traces) != want.Traces || string(got.refFA) != want.RefFA || got.workers != want.Workers {
		t.Fatalf("create %v, body %q: decoded traces %q, ref_fa %q, workers %d; encoding/json: %q, %q, %d",
			create, body, got.traces, got.refFA, got.workers, want.Traces, want.RefFA, want.Workers)
	}
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// drainScratches takes every scratch the pool holds and fills its whole
// buffer with fill, then gives them back.
func drainScratches(fill byte) {
	var held []*scratch
	for {
		sc, _ := scratchPool.Get().(*scratch)
		if sc == nil {
			break
		}
		b := sc.b[:cap(sc.b)]
		for i := range b {
			b[i] = fill
		}
		held = append(held, sc)
	}
	for _, sc := range held {
		putScratch(sc)
	}
}

// sessionText renders what a session keeps of its upload: each class's
// key, IDs and events, and its reference FA's text.
func sessionText(tb testing.TB, set *trace.Set, ref *fa.FA) string {
	tb.Helper()
	var b strings.Builder
	for i, c := range set.Classes() {
		fmt.Fprintf(&b, "%q %q", set.ClassKey(i), c.IDs)
		for _, e := range c.Rep.Events {
			fmt.Fprintf(&b, " [%q %q %q]", e.Def, e.Op, e.Uses)
		}
		b.WriteByte('\n')
	}
	if err := fa.Write(&b, ref); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

// A session keeps nothing of the scratch its create body was read into
// and its snapshot rendered in: once the pooled buffers are overwritten,
// every session's class keys, IDs, events and reference FA read as
// before.
func TestCreateDoesNotAliasScratch(t *testing.T) {
	srv := New(Config{SnapshotDir: t.TempDir()})
	h := srv.Handler()
	fx := fixtureFrom(t, combinatorialSet(6))
	set, err := trace.Read(strings.NewReader(fx.Traces))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fa.Read(strings.NewReader(fx.RefFA))
	if err != nil {
		t.Fatal(err)
	}
	want := sessionText(t, set, ref)
	body := mustMarshal(t, fx)
	var ids []string
	// Several rounds, because under -race the pool drops a quarter of
	// what it is given.
	for round := 0; round < 8; round++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
		var created apiv1.CreateSessionResponse
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
			t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
		}
		ids = append(ids, created.SessionID)
		drainScratches(0xff)
		for _, id := range ids {
			res, ok := srv.store.resolve(id)
			if !ok {
				t.Fatalf("session %s is gone", id)
			}
			sess := res.entry.session
			if got := sessionText(t, sess.Set(), sess.Ref()); got != want {
				t.Fatalf("round %d: session %s changed once the scratch buffers were overwritten:\n got %s\nwant %s", round, id, got, want)
			}
		}
	}
}

// Concurrent creates of distinct bodies each get a session of their own
// body, never another's bytes, though they share the scratch pool (run
// under -race by make race).
func TestConcurrentCreatesDistinctBodies(t *testing.T) {
	_, c := newTestServer(t, Config{SnapshotDir: t.TempDir()})
	const workers, perWorker = 4, 6
	sets := make([]*trace.Set, workers*perWorker)
	reqs := make([]apiv1.CreateSessionRequest, len(sets))
	for i := range sets {
		sets[i] = combinatorialSet(4 + i%5)
		reqs[i] = fixtureFrom(t, sets[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * perWorker; i < (w+1)*perWorker; i++ {
				var created apiv1.CreateSessionResponse
				if code := c.do("POST", "/v1/sessions", reqs[i], &created); code != http.StatusCreated {
					t.Errorf("create: status %d", code)
					return
				}
				var list apiv1.TraceList
				if code := c.do("GET", "/v1/sessions/"+created.SessionID+"/traces", nil, &list); code != http.StatusOK {
					t.Errorf("list traces: status %d", code)
					return
				}
				set := sets[i]
				if len(list.Traces) != set.NumClasses() {
					t.Errorf("session of %d classes lists %d", set.NumClasses(), len(list.Traces))
					return
				}
				for j, tc := range list.Traces {
					if tc.Key != set.ClassKey(j) {
						t.Errorf("class %d: key %q, uploaded %q", j, tc.Key, set.ClassKey(j))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCreateDecodeAllocs pins what a warm create allocates through
// ServeHTTP with persistence on and its request and response writer
// reused, and that decodeBody itself allocates only its body limit. The
// count is the fewest over several creates, because under -race sync.Pool
// drops a quarter of what it is given, so a scratch is grown again at
// random.
func TestCreateDecodeAllocs(t *testing.T) {
	const maxCreateAllocs = 244 // 237 without -race, which adds two
	srv := New(Config{SnapshotDir: t.TempDir()})
	h := srv.Handler()
	src := mustMarshal(t, violationFixture(t))
	body := &rewindBody{}
	req := httptest.NewRequest("POST", "/v1/sessions", body)
	w := &reusedResponse{header: http.Header{}}
	create := func() {
		body.Reset(src)
		w.body.Reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusCreated {
			t.Fatalf("create: status %d: %s", w.status, w.body.Bytes())
		}
	}
	decode := func() {
		body.Reset(src)
		sc := getScratch()
		if _, err := decodeBody(w, req, sc, true); err != nil {
			t.Fatal(err)
		}
		putScratch(sc)
	}
	fewestCreate, fewestDecode := math.Inf(1), math.Inf(1)
	for round := 0; round < 40; round++ {
		fewestCreate = min(fewestCreate, testing.AllocsPerRun(1, create))
		fewestDecode = min(fewestDecode, testing.AllocsPerRun(1, decode))
		for _, e := range srv.store.list() {
			srv.store.remove(e.id)
		}
	}
	if fewestDecode > 1 {
		t.Errorf("decoding a warm create body allocates %v objects, want at most 1 (the body limit)", fewestDecode)
	}
	if fewestCreate > maxCreateAllocs {
		t.Errorf("a warm create allocates %v objects, want at most %d", fewestCreate, maxCreateAllocs)
	}
}

// The scratch pool is bounded: a body grows its buffer only as bytes
// arrive, whatever its Content-Length claims, and a buffer grown past
// maxPooledScratch is dropped instead of pooled.
func TestScratchBounds(t *testing.T) {
	req := httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(`{"traces":"a"}`))
	req.ContentLength = maxJSONBody
	sc := new(scratch)
	if _, err := decodeBody(httptest.NewRecorder(), req, sc, true); err != nil {
		t.Fatal(err)
	}
	if cap(sc.b) > 512 {
		t.Errorf("a 14-byte body claiming %d bytes grew its buffer to %d bytes", req.ContentLength, cap(sc.b))
	}
	big := &scratch{b: make([]byte, 0, maxPooledScratch+1)}
	putScratch(big)
	for {
		sc, _ := scratchPool.Get().(*scratch)
		if sc == nil {
			break
		}
		if sc == big || cap(sc.b) > maxPooledScratch {
			t.Fatalf("the pool kept a %d-byte buffer, over its %d-byte cap", cap(sc.b), maxPooledScratch)
		}
	}
}

// createBodies returns the create bodies BenchmarkCreateSession times: a
// paper-scale one (XSetFont at exp.DefaultScale, 17.5 KB, the size of an
// average create of perfbench's triage workload) and a bulk-shaped one
// (1000 classes of 2 to 6 events over 24 Zipf-drawn operations under
// fa.Unordered, about 70 KB, as perfbench's bulk workload uploads).
func createBodies(tb testing.TB) []struct {
	name string
	body []byte
} {
	sp, ok := specs.ByName("XSetFont")
	if !ok {
		tb.Fatal("no XSetFont spec")
	}
	ex, err := exp.Prepare(sp, exp.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	const ops = 24
	alpha := make([]event.Event, ops)
	for i := range alpha {
		alpha[i] = event.Call(fmt.Sprintf("op%02d", i), "X")
	}
	rng := rand.New(rand.NewSource(20030609))
	z := rand.NewZipf(rng, 1.05, 1, ops-1)
	bulk := &trace.Set{}
	for i := 0; bulk.NumClasses() < 1000; i++ {
		evs := make([]event.Event, 2+rng.Intn(5))
		for j := range evs {
			evs[j] = alpha[z.Uint64()]
		}
		bulk.Add(trace.New(fmt.Sprintf("t%d", i), evs...))
	}
	text := func(set *trace.Set, ref *fa.FA) []byte {
		var traces, refText strings.Builder
		if err := trace.Write(&traces, set); err != nil {
			tb.Fatal(err)
		}
		if err := fa.Write(&refText, ref); err != nil {
			tb.Fatal(err)
		}
		return mustMarshal(tb, apiv1.CreateSessionRequest{Traces: traces.String(), RefFA: refText.String()})
	}
	return []struct {
		name string
		body []byte
	}{
		{"Paper", text(ex.Set, ex.Ref)},
		{"Bulk", text(bulk, fa.Unordered(alpha))},
	}
}

// BenchmarkCreateSession times POST /v1/sessions through ServeHTTP, with
// its request and response writer reused, on a paper-scale and a
// bulk-shaped body, with persistence off and on (the snapshot write).
// Each created session is deleted again untimed.
func BenchmarkCreateSession(b *testing.B) {
	for _, body := range createBodies(b) {
		for _, persist := range []bool{false, true} {
			name := body.name + "/NoPersist"
			if persist {
				name = body.name + "/Persist"
			}
			b.Run(name, func(b *testing.B) {
				var cfg Config
				if persist {
					cfg.SnapshotDir = b.TempDir()
				}
				srv := New(cfg)
				h := srv.Handler()
				rb := &rewindBody{}
				req := httptest.NewRequest("POST", "/v1/sessions", rb)
				w := &reusedResponse{header: http.Header{}}
				b.SetBytes(int64(len(body.body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rb.Reset(body.body)
					w.body.Reset()
					h.ServeHTTP(w, req)
					b.StopTimer()
					var created apiv1.CreateSessionResponse
					if w.status != http.StatusCreated || json.Unmarshal(w.body.Bytes(), &created) != nil {
						b.Fatalf("create: status %d: %s", w.status, w.body.Bytes())
					}
					srv.store.remove(created.SessionID)
					b.StartTimer()
				}
			})
		}
	}
}
