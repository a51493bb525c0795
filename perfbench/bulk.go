package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/concept"
	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/server"
	"repro/internal/server/apiv1"
	"repro/internal/trace"
)

// Bulk sizing. Each session uploads a distinct corpus of bulkClasses trace
// classes over bulkOps operations, drawn Zipf-skewed so that the lattice
// has a few thousand concepts, then appends bulkAdds batches of
// bulkBatch traces. A session is 1 create + bulkAdds adds + 1 delete, so
// creates are about 3% of requests.
const (
	bulkOps               = 24
	bulkClasses           = 1000
	bulkAdds              = 30
	bulkBatch             = 4
	bulkSessionsPerSecond = 4
	bulkNaiveSamples      = 2
	bulkCorpusSeed        = 20030609
)

// bulkSession is one generated upload with its expected replies.
type bulkSession struct {
	classes  int
	corpus   []trace.Trace // initial classes, one trace each
	create   []byte
	adds     [][]byte
	addNew   []int         // new classes per add
	addTotal []int         // classes after each add
	all      []trace.Trace // every class after the last add, in order
}

// bulk is cold uploads of wide-alphabet corpora with persistence off:
// the concept engine does most of the work.
type bulk struct {
	env
	sessions []*bulkSession
	warm     *bulkSession
	script   []bulkOp
	sampled  map[int]bool // sessions whose lattice sizes BuildNaive re-checks
	ref      *fa.FA

	c   *client
	sh  *shadow
	sid string
	got map[int][]int // sampled session → concepts after create and after the adds
}

type bulkOp struct {
	s    int    // session index; -1 is the warm-up session
	kind opKind // opCreate, opAddTraces (arg: batch) or opDelete
	arg  int
}

func bulkAlphabet() []event.Event {
	alpha := make([]event.Event, bulkOps)
	for i := range alpha {
		alpha[i] = event.Call(fmt.Sprintf("op%02d", i), "X")
	}
	return alpha
}

func newBulk(e env) (workload, error) {
	w := &bulk{env: e, ref: fa.Unordered(bulkAlphabet()), sampled: map[int]bool{}}
	var refText strings.Builder
	if err := fa.Write(&refText, w.ref); err != nil {
		return nil, err
	}
	n, classes, adds := e.seconds*bulkSessionsPerSecond, bulkClasses, bulkAdds
	if e.smoke {
		n, classes, adds = 4, 60, 3
	}
	// Every run uploads the same distinct corpora, drawn from fixed
	// corpus seeds, so runs measure equal work; the benchmark seed orders
	// the sessions and picks the ones re-checked.
	for i := 0; i <= n; i++ {
		s, err := genBulkSession(rand.New(rand.NewSource(bulkCorpusSeed+int64(i))), refText.String(), classes, adds)
		if err != nil {
			return nil, err
		}
		if i == n {
			w.warm = s
			break
		}
		w.sessions = append(w.sessions, s)
	}
	rng := rand.New(rand.NewSource(e.seed))
	for _, i := range rng.Perm(n) {
		w.script = append(w.script, bulkOp{i, opCreate, 0})
		for a := range w.sessions[i].adds {
			w.script = append(w.script, bulkOp{i, opAddTraces, a})
		}
		w.script = append(w.script, bulkOp{i, opDelete, 0})
	}
	for _, i := range rng.Perm(n)[:min(n, bulkNaiveSamples)] {
		w.sampled[i] = true
	}
	// Only the sampled corpora are re-checked; drop the rest so the
	// benchmark's own inputs do not dominate heap_live_mb.
	for i, s := range w.sessions {
		if !w.sampled[i] {
			s.corpus, s.all = nil, nil
		}
	}
	return w, nil
}

// genBulkSession draws one corpus and its add batches. Operations are
// Zipf-distributed so a few are common and most are rare; traces are 2 to
// 6 events long, which gives over a thousand concepts per 1000 classes.
func genBulkSession(rng *rand.Rand, refText string, classes, adds int) (*bulkSession, error) {
	z := rand.NewZipf(rng, 1.05, 1, bulkOps-1)
	draw := func(id string) trace.Trace {
		evs := make([]string, 2+rng.Intn(5))
		for j := range evs {
			evs[j] = fmt.Sprintf("op%02d(X)", z.Uint64())
		}
		return trace.ParseEvents(id, evs...)
	}
	s := &bulkSession{}
	set := &trace.Set{}
	for i := 0; set.NumClasses() < classes; i++ {
		set.Add(draw(fmt.Sprintf("t%d", i)))
	}
	var text bytes.Buffer
	if err := trace.Write(&text, set); err != nil {
		return nil, err
	}
	s.create = mustJSON(apiv1.CreateSessionRequest{Traces: text.String(), RefFA: refText})
	s.corpus, s.classes = set.Representatives(), set.NumClasses()
	for a := 0; a < adds; a++ {
		batch := &trace.Set{}
		before := set.NumClasses()
		for j := 0; j < bulkBatch; j++ {
			t := draw(fmt.Sprintf("a%d.%d", a, j))
			batch.Add(t)
			set.Add(t)
		}
		var bt bytes.Buffer
		if err := trace.Write(&bt, batch); err != nil {
			return nil, err
		}
		s.adds = append(s.adds, mustJSON(apiv1.AddTracesRequest{Traces: bt.String()}))
		s.addNew = append(s.addNew, set.NumClasses()-before)
		s.addTotal = append(s.addTotal, set.NumClasses())
	}
	s.all = set.Representatives()
	return s, nil
}

func (w *bulk) setup() error {
	w.c = newClient(server.New(cabledDefaults("", w.obs)).Handler(), w.env)
	w.sh = &shadow{tr: w.tr, cacheOn: true}
	w.got = map[int][]int{}
	ops := []bulkOp{{-1, opCreate, 0}}
	for a := range w.warm.adds {
		ops = append(ops, bulkOp{-1, opAddTraces, a})
	}
	for _, op := range append(ops, bulkOp{-1, opDelete, 0}) {
		if _, err := w.run(op); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *bulk) ops() int { return len(w.script) }

func (w *bulk) do(i int) (time.Duration, error) { return w.run(w.script[i]) }

func (w *bulk) run(op bulkOp) (time.Duration, error) {
	s := w.warm
	if op.s >= 0 {
		s = w.sessions[op.s]
	}
	switch op.kind {
	case opCreate:
		var r apiv1.CreateSessionResponse
		d, err := w.c.callJSON("create_session", "POST", "/v1/sessions", s.create, 201, &r)
		w.sid = r.SessionID
		if err != nil {
			return d, err
		}
		w.tr.count("server.creates", 1)
		if r.NumTraces != s.classes || r.CacheHit {
			return d, fmt.Errorf("create: %d classes (want %d), cache hit %v", r.NumTraces, s.classes, r.CacheHit)
		}
		if w.sampled[op.s] {
			w.got[op.s] = []int{r.NumConcepts}
		}
		return d, w.sh.create(s.create, false)
	case opAddTraces:
		var r apiv1.AddTracesResponse
		d, err := w.c.callJSON("add_traces", "POST", "/v1/sessions/"+w.sid+"/traces", s.adds[op.arg], 200, &r)
		if err != nil {
			return d, err
		}
		if r.Added != bulkBatch || r.NewClasses != s.addNew[op.arg] || r.NumTraces != s.addTotal[op.arg] {
			return d, fmt.Errorf("add %d: %+v, want %d new of %d, %d classes", op.arg, r, s.addNew[op.arg], bulkBatch, s.addTotal[op.arg])
		}
		if w.sampled[op.s] && op.arg == len(s.adds)-1 {
			w.got[op.s] = append(w.got[op.s], r.NumConcepts)
		}
		return d, w.sh.addTraces(s.adds[op.arg])
	case opDelete:
		d, err := w.c.callJSON("delete_session", "DELETE", "/v1/sessions/"+w.sid, nil, 204, nil)
		w.sid = ""
		return d, err
	}
	return 0, fmt.Errorf("unknown op kind %d", op.kind)
}

// finish re-derives the lattice size of the sampled sessions, after
// create and after the last add, with the naive closure builder.
func (w *bulk) finish() (int, int, error) {
	checks, failed := 0, 0
	for i := range w.sampled {
		s := w.sessions[i]
		for k, traces := range [][]trace.Trace{s.corpus, s.all} {
			want, err := naiveConcepts(traces, w.ref)
			if err != nil {
				return checks, failed, err
			}
			checks++
			if got := w.got[i]; len(got) <= k || got[k] != want {
				failed++
			}
		}
	}
	return checks, failed, nil
}

func naiveConcepts(traces []trace.Trace, ref *fa.FA) (int, error) {
	cx, err := concept.TraceContextCtx(context.Background(), traces, ref, 1)
	if err != nil {
		return 0, err
	}
	return concept.BuildNaive(cx).Len(), nil
}

func (w *bulk) close() { w.c, w.sh, w.sid = nil, nil, "" }
