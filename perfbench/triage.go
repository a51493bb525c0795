package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/exp"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/apiv1"
	"repro/internal/specs"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// Triage sizing. The pool is the 17 Table-1 specs at exp.DefaultScale,
// each prepared under triagePoolSeeds fixed workload seeds, so every run
// draws from the same sessions; a run replays triageSessionsPerSecond ×
// seconds sessions from it in an order the benchmark seed shuffles, and
// the warm-up replays every pool entry once.
const (
	triagePoolSeeds         = 6
	triageSessionsPerSecond = 200
	triageFreshTraces       = 3
)

// cabledDefaults mirrors cmd/cabled's flag defaults.
func cabledDefaults(snapshotDir string, m *obs.Metrics) server.Config {
	return server.Config{
		RequestTimeout: 30 * time.Second,
		IdleTimeout:    30 * time.Minute,
		CacheSize:      64,
		SnapshotDir:    snapshotDir,
		Metrics:        m,
	}
}

// opKind is one request of a scripted session.
type opKind int

const (
	opCreate opKind = iota
	opListConcepts
	opGetConcept // arg: concept ID
	opLabel      // arg: index into the entry's label requests
	opAddTraces
	opGetSession
	opExport
	opDelete
)

// triageEntry is one prepared session: a spec's corpus under one seed,
// the Expert plan over its lattice, a batch of fresh traces, and the
// ground truth the finished session must export.
type triageEntry struct {
	create   []byte
	classes  int
	concepts int
	labels   [][]byte // label requests: plan labelings, then fresh classes
	add      []byte
	addTotal int
	addNew   int
	truth    map[string]string // class key → label after the add
	ops      []triageOp
}

type triageOp struct {
	kind opKind
	arg  int
}

// triage is interactive labeling at paper scale with persistence on.
type triage struct {
	env
	pool   []*triageEntry
	script []scriptedOp
	warmup []scriptedOp

	snapDir    string
	c          *client
	sh         *shadow
	sid        string
	warmFailed int // warm-up ops that failed their checks
}

// scriptedOp is one op of a run: a request of a pool entry's session.
type scriptedOp struct {
	e *triageEntry
	triageOp
}

func newTriage(e env) (workload, error) {
	w := &triage{env: e}
	seeds, sessions := triagePoolSeeds, e.seconds*triageSessionsPerSecond
	if e.smoke {
		seeds, sessions = 1, 4
	}
	for s := 0; s < seeds; s++ {
		for _, sp := range specs.All() {
			entry, err := prepareTriage(sp, exp.DefaultConfig().Seed+1+int64(s))
			if err != nil {
				return nil, err
			}
			w.pool = append(w.pool, entry)
		}
	}
	for _, entry := range w.pool {
		w.warmup = appendSession(w.warmup, entry)
	}
	rng := rand.New(rand.NewSource(e.seed))
	var order []int
	for len(order) < sessions {
		order = append(order, rng.Perm(len(w.pool))...)
	}
	for _, i := range order[:sessions] {
		w.script = appendSession(w.script, w.pool[i])
	}
	return w, nil
}

func appendSession(script []scriptedOp, e *triageEntry) []scriptedOp {
	for _, op := range e.ops {
		script = append(script, scriptedOp{e, op})
	}
	return script
}

// prepareTriage builds one pool entry. The fresh traces come from another
// draw of the spec's model; only classes the session lacks and its
// reference FA accepts are kept, plus one duplicate of an existing class.
func prepareTriage(sp specs.Spec, seed int64) (*triageEntry, error) {
	cfg := exp.DefaultConfig()
	cfg.Seed = seed
	ex, err := exp.Prepare(sp, cfg)
	if err != nil {
		return nil, err
	}
	plan, _, ok := strategy.ExpertPlan(ex.Lattice, ex.Truth)
	if !ok {
		return nil, fmt.Errorf("%s: no Expert plan", sp.Name)
	}
	var traces, ref bytes.Buffer
	if err := trace.Write(&traces, ex.Set); err != nil {
		return nil, err
	}
	if err := fa.Write(&ref, ex.Ref); err != nil {
		return nil, err
	}
	e := &triageEntry{
		create:   mustJSON(apiv1.CreateSessionRequest{Traces: traces.String(), RefFA: ref.String()}),
		classes:  ex.Set.NumClasses(),
		concepts: ex.Lattice.Len(),
		truth:    map[string]string{},
	}
	for i, cl := range ex.Set.Classes() {
		e.truth[cl.Rep.Key()] = string(ex.Truth[i])
	}
	e.ops = append(e.ops, triageOp{opCreate, 0}, triageOp{opListConcepts, 0})
	for _, op := range plan.Ops {
		e.ops = append(e.ops, triageOp{opGetConcept, op.Concept})
		if op.Label != cable.Unlabeled {
			cid := op.Concept
			e.ops = append(e.ops, triageOp{opLabel, len(e.labels)})
			e.labels = append(e.labels, mustJSON(apiv1.LabelRequest{
				Concept: &cid, Selector: &apiv1.Selector{Mode: "unlabeled"}, Label: string(op.Label)}))
		}
	}

	fresh, truth := xtrace.Generator{Model: sp.Model, Seed: seed + 7919}.ScenarioSet(exp.DefaultScale(sp.Name))
	add := &trace.Set{}
	labelFresh := []triageOp{{opAddTraces, 0}}
	for _, cl := range fresh.Classes() {
		if add.NumClasses() == triageFreshTraces {
			break
		}
		key := cl.Rep.Key()
		if ex.Set.ClassOfKey(key) >= 0 {
			continue
		}
		if _, ok := ex.Ref.Executed(cl.Rep); !ok {
			continue
		}
		t := cl.Rep
		t.ID = "fresh#" + strconv.Itoa(add.NumClasses())
		add.Add(t)
		idx := e.classes + add.NumClasses() - 1
		label := string(cable.Bad)
		if truth[key] {
			label = string(cable.Good)
		}
		e.truth[key] = label
		labelFresh = append(labelFresh, triageOp{opLabel, len(e.labels)})
		e.labels = append(e.labels, mustJSON(apiv1.LabelRequest{Trace: &idx, Label: label}))
	}
	e.addNew = add.NumClasses()
	dup := ex.Set.Class(0).Rep
	dup.ID = "fresh#dup"
	add.Add(dup)
	e.addTotal = add.Total()
	var addText bytes.Buffer
	if err := trace.Write(&addText, add); err != nil {
		return nil, err
	}
	e.add = mustJSON(apiv1.AddTracesRequest{Traces: addText.String()})
	e.ops = append(e.ops, labelFresh...)
	e.ops = append(e.ops, triageOp{opGetSession, 0}, triageOp{opExport, 0}, triageOp{opDelete, 0})
	return e, nil
}

func (w *triage) setup() error {
	dir, err := os.MkdirTemp(w.dir, "snap-")
	if err != nil {
		return err
	}
	w.snapDir = dir
	w.c = newClient(server.New(cabledDefaults(dir, w.obs)).Handler(), w.env)
	w.sh = &shadow{tr: w.tr, cacheOn: true, lattices: map[string]*concept.Lattice{}, persist: true}
	// The warm-up replays every pool entry, so its failures are counted
	// in finish like the timed ops', not treated as a broken set-up.
	w.warmFailed = 0
	for _, op := range w.warmup {
		if _, err := w.run(op); err != nil {
			w.warmFailed++
		}
	}
	return nil
}

func (w *triage) ops() int { return len(w.script) }

func (w *triage) do(i int) (time.Duration, error) { return w.run(w.script[i]) }

func (w *triage) run(op scriptedOp) (time.Duration, error) {
	e, base := op.e, "/v1/sessions/"+w.sid
	switch op.kind {
	case opCreate:
		var r apiv1.CreateSessionResponse
		d, err := w.c.callJSON("create_session", "POST", "/v1/sessions", e.create, 201, &r)
		w.sid = r.SessionID
		if err != nil {
			return d, err
		}
		w.tr.count("server.creates", 1)
		if r.CacheHit {
			w.tr.count("server.cache_hits", 1)
		}
		if r.NumTraces != e.classes || r.NumConcepts != e.concepts {
			return d, fmt.Errorf("create: %d classes, %d concepts; want %d, %d", r.NumTraces, r.NumConcepts, e.classes, e.concepts)
		}
		if w.tr != nil {
			w.tr.count("persist.snap_bytes", float64(fileSize(w.snapDir, w.sid+".snap")))
			w.tr.count("persist.sessions", 1)
		}
		return d, w.sh.create(e.create, r.CacheHit)
	case opListConcepts:
		var r apiv1.ConceptList
		d, err := w.c.callJSON("list_concepts", "GET", base+"/concepts", nil, 200, &r)
		if err == nil && len(r.Concepts) != e.concepts {
			err = fmt.Errorf("list concepts: %d, want %d", len(r.Concepts), e.concepts)
		}
		return d, firstErr(err, w.sh.inspect(inspectConcepts, 0))
	case opGetConcept:
		var r apiv1.Concept
		d, err := w.c.callJSON("get_concept", "GET", base+"/concepts/"+strconv.Itoa(op.arg), nil, 200, &r)
		if err == nil && r.ID != op.arg {
			err = fmt.Errorf("get concept %d: got %d", op.arg, r.ID)
		}
		return d, firstErr(err, w.sh.inspect(inspectConcept, op.arg))
	case opLabel:
		var r apiv1.LabelResponse
		d, err := w.c.callJSON("label", "POST", base+"/label", e.labels[op.arg], 200, &r)
		if err == nil && r.Labeled < 1 {
			err = fmt.Errorf("label request %d labeled nothing", op.arg)
		}
		return d, firstErr(err, w.sh.label(e.labels[op.arg]))
	case opAddTraces:
		var r apiv1.AddTracesResponse
		d, err := w.c.callJSON("add_traces", "POST", base+"/traces", e.add, 200, &r)
		if err == nil && (r.Added != e.addTotal || r.NewClasses != e.addNew || r.NumTraces != e.classes+e.addNew) {
			err = fmt.Errorf("add traces: %+v, want %d added, %d new", r, e.addTotal, e.addNew)
		}
		return d, firstErr(err, w.sh.addTraces(e.add))
	case opGetSession:
		var r apiv1.SessionInfo
		d, err := w.c.callJSON("get_session", "GET", base, nil, 200, &r)
		if err == nil && (!r.Done || r.Labeled != len(e.truth)) {
			err = fmt.Errorf("session not done: %d of %d labeled", r.Labeled, len(e.truth))
		}
		return d, firstErr(err, w.sh.inspect(inspectSession, 0))
	case opExport:
		var r apiv1.LabelsExport
		d, err := w.c.callJSON("export_labels", "GET", base+"/labels", nil, 200, &r)
		if err == nil {
			err = checkExport(r, e.truth)
		}
		return d, firstErr(err, w.sh.inspect(inspectLabels, 0))
	case opDelete:
		if w.tr != nil {
			w.tr.count("persist.wal_bytes", float64(fileSize(w.snapDir, w.sid+".wal")))
		}
		d, err := w.c.callJSON("delete_session", "DELETE", base, nil, 204, nil)
		w.sid = ""
		return d, err
	}
	return 0, fmt.Errorf("unknown op kind %d", op.kind)
}

// checkExport compares exported labels with the generator's ground truth.
func checkExport(r apiv1.LabelsExport, truth map[string]string) error {
	if len(r.Labels) != len(truth) {
		return fmt.Errorf("export: %d labels, want %d", len(r.Labels), len(truth))
	}
	for _, l := range r.Labels {
		if want, ok := truth[l.Key]; !ok || want != l.Label {
			return fmt.Errorf("export: %q labeled %q, truth %q", l.Key, l.Label, want)
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *triage) finish() (int, int, error) { return len(w.warmup), w.warmFailed, nil }

func (w *triage) close() {
	if w.snapDir != "" {
		os.RemoveAll(w.snapDir)
	}
	w.c, w.sh, w.sid, w.snapDir = nil, nil, "", ""
}
