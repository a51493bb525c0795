// Package server hosts concurrent Cable debugging sessions behind a
// stdlib-only HTTP/JSON service. Each session wraps a cable.Session keyed
// by an opaque ID; per-session mutexes serialize labeling on one session
// while distinct sessions proceed in parallel. Built lattices are cached
// in an LRU keyed by the (trace set, reference FA) fingerprint, so
// re-uploading known inputs skips concept.Build. Request deadlines are
// enforced with context.Context and propagate into the lattice build, so
// a cancelled upload or a server shutdown abandons its build between
// work items instead of running it to completion.
//
// The wire types live in the versioned internal/server/apiv1 package;
// this package contains only transport and lifecycle.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cable"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/scanio"
	"repro/internal/server/apiv1"
	"repro/internal/trace"
)

// Config sizes and paces the service.
type Config struct {
	// RequestTimeout bounds each request, including lattice builds;
	// 0 means no per-request deadline.
	RequestTimeout time.Duration
	// IdleTimeout evicts sessions untouched for this long; 0 disables
	// eviction.
	IdleTimeout time.Duration
	// CacheSize is the lattice LRU capacity; 0 disables the cache.
	CacheSize int
	// SnapshotDir, when non-empty, enables crash-safe session
	// persistence: a snapshot per session plus a write-ahead log of
	// labeling actions (see persist.go). Empty disables persistence.
	SnapshotDir string
	// Metrics receives instrumentation; nil uses the process default
	// registry (which may itself be nil — all instruments no-op then).
	Metrics *obs.Metrics
}

// Server is the cabled service: construct with New, mount Handler on an
// http.Server, and run Janitor alongside if idle eviction is wanted.
type Server struct {
	cfg     Config
	metrics *obs.Metrics
	store   *store
	cache   *latticeCache
	persist *persister // nil when persistence is disabled
	mux     *http.ServeMux
}

// New builds a Server with its routes mounted. A bad SnapshotDir is
// reported on first use (LoadSnapshots/SaveSnapshots), not here, so New
// stays infallible for callers without persistence.
func New(cfg Config) *Server {
	m := cfg.Metrics
	if m == nil {
		m = obs.Default()
	}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		store:   newStore(m),
		cache:   newLatticeCache(cfg.CacheSize, m),
	}
	if p, err := newPersister(cfg.SnapshotDir, m); err == nil && p != nil {
		s.persist = p
		s.store.onEvict = p.removeFiles
	} else if err != nil {
		m.Counter("server.snapshot.errors").Inc()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.instrument("create_session", s.handleCreateSession))
	mux.HandleFunc("GET /v1/sessions", s.instrument("list_sessions", s.handleListSessions))
	mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("get_session", s.handleGetSession))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("delete_session", s.handleDeleteSession))
	mux.HandleFunc("GET /v1/sessions/{id}/concepts", s.instrument("list_concepts", s.handleListConcepts))
	mux.HandleFunc("GET /v1/sessions/{id}/concepts/{cid}", s.instrument("get_concept", s.handleGetConcept))
	mux.HandleFunc("GET /v1/sessions/{id}/traces", s.instrument("list_traces", s.handleListTraces))
	mux.HandleFunc("POST /v1/sessions/{id}/traces", s.instrument("add_traces", s.handleAddTraces))
	mux.HandleFunc("POST /v1/sessions/{id}/label", s.instrument("label", s.handleLabel))
	mux.HandleFunc("POST /v1/sessions/{id}/suggest", s.instrument("suggest", s.handleSuggest))
	mux.HandleFunc("POST /v1/sessions/{id}/focus", s.instrument("focus", s.handleFocus))
	mux.HandleFunc("POST /v1/sessions/{id}/end", s.instrument("end_focus", s.handleEndFocus))
	mux.HandleFunc("GET /v1/sessions/{id}/labels", s.instrument("export_labels", s.handleExportLabels))
	mux.HandleFunc("POST /v1/streams", s.instrument("open_stream", s.handleOpenStream))
	mux.HandleFunc("GET /v1/streams", s.instrument("list_streams", s.handleListStreams))
	mux.HandleFunc("GET /v1/streams/{id}", s.instrument("get_stream", s.handleGetStream))
	mux.HandleFunc("POST /v1/streams/{id}/events", s.instrument("stream_events", s.handleStreamEvents))
	mux.HandleFunc("DELETE /v1/streams/{id}", s.instrument("close_stream", s.handleCloseStream))
	mux.HandleFunc("POST /v1/lint", s.instrument("lint", s.handleLint))
	mux.HandleFunc("GET /v1/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Janitor evicts idle sessions every interval until ctx is done. It is a
// no-op loop when idle eviction is disabled.
func (s *Server) Janitor(ctx context.Context, interval time.Duration) {
	if s.cfg.IdleTimeout <= 0 {
		return
	}
	if interval <= 0 {
		interval = s.cfg.IdleTimeout / 4
		if interval < time.Second {
			interval = time.Second
		}
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.store.evictIdle(s.cfg.IdleTimeout)
		}
	}
}

// EvictIdleNow runs one eviction sweep immediately; exported for tests
// and operational tooling.
func (s *Server) EvictIdleNow() int { return s.store.evictIdle(s.cfg.IdleTimeout) }

// handlerFunc is an endpoint body: it gets the request-scoped context
// (with the per-request deadline applied) and returns an error already
// classified by the http* helpers, or nil after writing a response.
type handlerFunc func(ctx context.Context, w http.ResponseWriter, r *http.Request) error

// instrument wraps an endpoint with the per-endpoint counter, latency
// span, deadline, and the uniform error envelope.
func (s *Server) instrument(name string, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Counter("server.req." + name).Inc()
		sp := s.metrics.StartSpan("server.latency." + name)
		defer sp.End()
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		if err := h(ctx, w, r); err != nil {
			s.metrics.Counter("server.err." + name).Inc()
			s.writeError(w, err)
		}
	}
}

// httpError carries a status and a stable code through handler returns.
type httpError struct {
	status int
	code   string
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(err error) error {
	return &httpError{status: http.StatusBadRequest, code: "bad_request", err: err}
}

func notFound(err error) error {
	return &httpError{status: http.StatusNotFound, code: "not_found", err: err}
}

// sessionBusy marks work refused because of the session's current state
// (e.g. suggesting a focus for a concept that is not mixed).
func sessionBusy(err error) error {
	return &httpError{status: http.StatusConflict, code: "session_busy", err: err}
}

// validationFailed marks inputs that parsed fine but were rejected by
// the session's reference FA.
func validationFailed(err error) error {
	return &httpError{status: http.StatusUnprocessableEntity, code: "validation_failed", err: err}
}

// tooLarge marks a request body refused for exceeding its size limit.
func tooLarge(err *http.MaxBytesError) error {
	return &httpError{status: http.StatusRequestEntityTooLarge, code: "too_large",
		err: fmt.Errorf("request body exceeds the %d-byte limit", err.Limit)}
}

// classify maps domain errors that handlers pass through untouched:
// cable's sentinel errors to 404, context errors to deadline/drain
// statuses, everything else to 500. The codes are the stable v1 set
// documented on apiv1.Error.
func classify(err error) (status int, code string) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.status, he.code
	case errors.Is(err, cable.ErrBadConcept), errors.Is(err, cable.ErrBadTrace):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "draining"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// errorEnvelope renders a classified handler error into the uniform
// envelope, anchoring line-located failures (scanio.Error anywhere in
// the chain) to their input line.
func errorEnvelope(code string, err error) apiv1.Error {
	env := apiv1.Error{Code: code, Message: err.Error()}
	var se *scanio.Error
	if errors.As(err, &se) {
		env.Line = se.Line
		env.Detail = se.Subsystem
	}
	return env
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	writeJSON(w, status, errorEnvelope(code, err))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxJSONBody bounds one JSON request body.
const maxJSONBody = 64 << 20

// decodeJSON reads a request body into v, rejecting unknown fields so
// typos in client payloads fail loudly instead of silently defaulting. A
// body over maxJSONBody is refused with a 413, not cut short into a
// syntax error.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return tooLarge(mbe)
		}
		return badRequest(fmt.Errorf("decoding request: %w", err))
	}
	return nil
}

// withSession resolves the {id} path value (session or focus-session ID),
// locks its entry, and runs fn with the target session. The entry lock
// spans fn, so handler bodies never race on one session — but only fn:
// fn returns the status and payload to send, and the response is
// serialized and written after the lock is released, so a slow client
// cannot stall the session's other callers. The lockheld analyzer
// enforces this split.
func (s *Server) withSession(w http.ResponseWriter, r *http.Request, fn func(e *entry, sess *cable.Session) (int, any, error)) error {
	id := r.PathValue("id")
	res, ok := s.store.resolve(id)
	if !ok {
		return notFound(fmt.Errorf("no session %q", id))
	}
	status, payload, err := func() (int, any, error) {
		res.entry.mu.Lock()
		defer res.entry.mu.Unlock()
		sess := res.session
		if res.focusID != "" {
			f, ok := res.entry.focuses[res.focusID]
			if !ok {
				return 0, nil, notFound(fmt.Errorf("focus session %q has ended", id))
			}
			sess = f.Session()
		}
		return fn(res.entry, sess)
	}()
	// Stamp the idle clock again now the work is done: resolve stamped at
	// request start, so a request that outlived the idle window would
	// otherwise hand its session straight to the janitor.
	s.store.touch(res.entry)
	if err != nil {
		return err
	}
	writeJSON(w, status, payload)
	return nil
}

func parseSelector(sel *apiv1.Selector) (cable.Selector, error) {
	if sel == nil {
		return cable.SelectAll(), nil
	}
	switch sel.Mode {
	case "", "all":
		return cable.SelectAll(), nil
	case "unlabeled":
		return cable.SelectUnlabeled(), nil
	case "label":
		if sel.Label == "" {
			return cable.Selector{}, badRequest(errors.New(`selector mode "label" needs a label`))
		}
		return cable.SelectLabel(cable.Label(sel.Label)), nil
	default:
		return cable.Selector{}, badRequest(fmt.Errorf("unknown selector mode %q", sel.Mode))
	}
}

func (s *Server) handleCreateSession(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req apiv1.CreateSessionRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return err
	}
	if req.Workers < 0 {
		return badRequest(fmt.Errorf("workers: %d is negative", req.Workers))
	}
	set, err := trace.Read(strings.NewReader(req.Traces))
	if err != nil {
		return badRequest(fmt.Errorf("traces: %w", err))
	}
	if set.NumClasses() == 0 {
		return badRequest(errors.New("traces: empty trace set"))
	}
	ref, err := fa.Read(strings.NewReader(req.RefFA))
	if err != nil {
		return badRequest(fmt.Errorf("ref_fa: %w", err))
	}
	key := cacheKey(set, ref)
	opts := []cable.Option{
		cable.WithContext(ctx),
		cable.WithObs(s.metrics),
	}
	hit := false
	if l := s.cache.Get(key); l != nil {
		opts = append(opts, cable.WithLattice(l))
		hit = true
	}
	sess, err := cable.NewSession(set, ref, opts...)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return badRequest(err)
	}
	// After Put, the cache and the session reference one lattice; either
	// way an enabled cache means this session must copy-on-write before
	// its first incremental mutation (see handleAddTraces).
	shared := hit
	if !hit && s.cache.Enabled() {
		s.cache.Put(key, sess.Lattice())
		shared = true
	}
	id, err := s.store.add(sess, shared, hit)
	if err != nil {
		return err
	}
	if s.persist != nil {
		// Persist the newborn session before the client learns its ID, so
		// a crash at any later point can restore it. Failure is counted,
		// not fatal: the in-memory session still serves.
		if err := s.persist.writeSnap(id, sess); err != nil {
			s.metrics.Counter("server.snapshot.errors").Inc()
		}
	}
	writeJSON(w, http.StatusCreated, apiv1.CreateSessionResponse{
		SessionID:   id,
		NumTraces:   sess.NumTraces(),
		NumConcepts: sess.Lattice().Len(),
		Top:         sess.Lattice().Top(),
		CacheHit:    hit,
	})
	return nil
}

func (s *Server) sessionInfo(e *entry, sess *cable.Session, focus bool, id string) apiv1.SessionInfo {
	labeled := 0
	for _, l := range sess.Labels() {
		if l != cable.Unlabeled {
			labeled++
		}
	}
	info := apiv1.SessionInfo{
		SessionID:   id,
		NumTraces:   sess.NumTraces(),
		NumConcepts: sess.Lattice().Len(),
		Labeled:     labeled,
		Done:        sess.Done(),
		Focus:       focus,
		Created:     e.created.UTC().Format(time.RFC3339),
		CacheHit:    e.cacheHit,
	}
	if focus {
		info.Parent = e.id
	} else {
		info.Streams = len(s.store.streamsOf(e.id))
		if s.persist != nil {
			info.Snapshot = s.persist.state(e.id)
		}
	}
	return info
}

// pageParams parses the shared ?cursor= / ?limit= pagination query
// parameters. cursor is the last ID of the previous page (exclusive);
// limit 0 means no cap.
func pageParams(r *http.Request) (cursor string, limit int, err error) {
	q := r.URL.Query()
	cursor = q.Get("cursor")
	if ls := q.Get("limit"); ls != "" {
		limit, err = strconv.Atoi(ls)
		if err != nil || limit < 0 {
			return "", 0, badRequest(fmt.Errorf("limit: not a non-negative integer: %q", ls))
		}
	}
	return cursor, limit, nil
}

// page applies cursor+limit to an ID-sorted slice and returns the page
// plus the next cursor ("" on the last page).
func page[T any](items []T, id func(T) string, cursor string, limit int) ([]T, string) {
	start := 0
	if cursor != "" {
		for start < len(items) && id(items[start]) <= cursor {
			start++
		}
	}
	items = items[start:]
	if limit > 0 && len(items) > limit {
		return items[:limit:limit], id(items[limit-1])
	}
	return items, ""
}

func (s *Server) handleListSessions(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	cursor, limit, err := pageParams(r)
	if err != nil {
		return err
	}
	entries := s.store.list()
	infos := make([]apiv1.SessionInfo, 0, len(entries))
	for _, e := range entries {
		e.mu.Lock()
		infos = append(infos, s.sessionInfo(e, e.session, false, e.id))
		e.mu.Unlock()
	}
	// Map iteration order is random; pin a stable listing before paging.
	sortSessions(infos)
	pageInfos, next := page(infos, func(i apiv1.SessionInfo) string { return i.SessionID }, cursor, limit)
	writeJSON(w, http.StatusOK, apiv1.SessionList{Sessions: pageInfos, NextCursor: next})
	return nil
}

func sortSessions(ss []apiv1.SessionInfo) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].SessionID < ss[j-1].SessionID; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

func (s *Server) handleGetSession(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	return s.withSession(w, r, func(e *entry, sess *cable.Session) (int, any, error) {
		focus := sess != e.session
		return http.StatusOK, s.sessionInfo(e, sess, focus, r.PathValue("id")), nil
	})
}

func (s *Server) handleDeleteSession(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	if !s.store.remove(id) {
		return notFound(fmt.Errorf("no session %q (focus sessions are ended, not deleted)", id))
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

// stateSlug maps a concept state to its stable wire form, without the
// display-color suffix cable.State.String carries for the terminal UI.
func stateSlug(st cable.State) string {
	switch st {
	case cable.StateUnlabeled:
		return "Unlabeled"
	case cable.StatePartlyLabeled:
		return "PartlyLabeled"
	default:
		return "FullyLabeled"
	}
}

// conceptDTO renders one concept; transitions are optional because the
// list view would otherwise be quadratic in lattice size.
func conceptDTO(sess *cable.Session, id int, withTransitions bool) (apiv1.Concept, error) {
	state, err := sess.ConceptState(id)
	if err != nil {
		return apiv1.Concept{}, err
	}
	objs, err := sess.Select(id, cable.SelectAll())
	if err != nil {
		return apiv1.Concept{}, err
	}
	total := 0
	for _, o := range objs {
		n, err := sess.Multiplicity(o)
		if err != nil {
			return apiv1.Concept{}, err
		}
		total += n
	}
	l := sess.Lattice()
	c := l.Concept(id)
	dto := apiv1.Concept{
		ID:          id,
		State:       stateSlug(state),
		NumClasses:  c.Extent.Len(),
		TotalTraces: total,
		Similarity:  c.Intent.Len(),
		Parents:     append([]int{}, l.Parents(id)...),
		Children:    append([]int{}, l.Children(id)...),
	}
	if withTransitions {
		trans, err := sess.ShowTransitions(id, cable.SelectAll())
		if err != nil {
			return apiv1.Concept{}, err
		}
		dto.Transitions = make([]string, len(trans))
		for i, t := range trans {
			dto.Transitions[i] = t.String()
		}
	}
	return dto, nil
}

func (s *Server) handleListConcepts(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	return s.withSession(w, r, func(e *entry, sess *cable.Session) (int, any, error) {
		list := apiv1.ConceptList{Concepts: []apiv1.Concept{}}
		for _, id := range sess.Lattice().TopDownOrder() {
			dto, err := conceptDTO(sess, id, false)
			if err != nil {
				return 0, nil, err
			}
			list.Concepts = append(list.Concepts, dto)
		}
		return http.StatusOK, list, nil
	})
}

func (s *Server) handleGetConcept(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	cid, err := strconv.Atoi(r.PathValue("cid"))
	if err != nil {
		return badRequest(fmt.Errorf("concept id: %w", err))
	}
	return s.withSession(w, r, func(e *entry, sess *cable.Session) (int, any, error) {
		dto, err := conceptDTO(sess, cid, true)
		if err != nil {
			return 0, nil, err
		}
		return http.StatusOK, dto, nil
	})
}

func (s *Server) handleListTraces(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	return s.withSession(w, r, func(e *entry, sess *cable.Session) (int, any, error) {
		list := apiv1.TraceList{Traces: []apiv1.TraceClass{}}
		labels := sess.Labels()
		for i := range sess.Representatives() {
			count, err := sess.Multiplicity(i)
			if err != nil {
				return 0, nil, err
			}
			tc := apiv1.TraceClass{Index: i, Key: sess.Set().ClassKey(i), Count: count}
			if labels[i] != cable.Unlabeled {
				tc.Label = string(labels[i])
			}
			list.Traces = append(list.Traces, tc)
		}
		return http.StatusOK, list, nil
	})
}

func (s *Server) handleLabel(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req apiv1.LabelRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return err
	}
	if req.Label == "" {
		return badRequest(errors.New("label must be non-empty"))
	}
	if (req.Trace == nil) == (req.Concept == nil) {
		return badRequest(errors.New(`set exactly one of "trace" or "concept"`))
	}
	return s.withSession(w, r, func(e *entry, sess *cable.Session) (int, any, error) {
		// Log top-level label changes to the session's WAL. Focus labels
		// are scratch state until the focus ends (the merge rewrites the
		// snapshot), so only the parent session is diffed.
		var before []cable.Label
		if s.persist != nil && sess == e.session {
			before = sess.Labels()
		}
		if req.Trace != nil {
			if err := sess.LabelTrace(*req.Trace, cable.Label(req.Label)); err != nil {
				return 0, nil, err
			}
			s.walLabelDiff(e.id, sess, before)
			return http.StatusOK, apiv1.LabelResponse{Labeled: 1}, nil
		}
		sel, err := parseSelector(req.Selector)
		if err != nil {
			return 0, nil, err
		}
		n, err := sess.LabelTraces(*req.Concept, sel, cable.Label(req.Label))
		if err != nil {
			return 0, nil, err
		}
		s.walLabelDiff(e.id, sess, before)
		return http.StatusOK, apiv1.LabelResponse{Labeled: n}, nil
	})
}

// walLabelDiff appends one WAL record per class whose label changed
// between the before snapshot and the session's current labeling. A nil
// before (persistence off, or a focus session) is a no-op.
func (s *Server) walLabelDiff(id string, sess *cable.Session, before []cable.Label) {
	if before == nil {
		return
	}
	after := sess.Labels()
	var recs [][]byte
	for i := range after {
		if i < len(before) && before[i] == after[i] {
			continue
		}
		recs = append(recs, walLabelRecord(sess.Set().ClassKey(i), string(after[i])))
	}
	if err := s.persist.appendWAL(id, recs); err != nil {
		s.metrics.Counter("server.snapshot.errors").Inc()
	}
}

// handleAddTraces ingests additional traces into a live session without
// rebuilding its lattice: duplicates bump class multiplicities, novel
// traces run the incremental lattice-maintenance path. The batch is
// validated and its WAL records encoded up front so a rejected trace
// leaves the session unchanged, and cancellation is honoured once, before
// the first mutation: a batch cut short midway would leave live classes
// that the response denies and the WAL never records.
func (s *Server) handleAddTraces(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req apiv1.AddTracesRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return err
	}
	in, err := trace.Read(strings.NewReader(req.Traces))
	if err != nil {
		return badRequest(fmt.Errorf("traces: %w", err))
	}
	if in.Total() == 0 {
		return badRequest(errors.New("traces: empty trace set"))
	}
	return s.withSession(w, r, func(e *entry, sess *cable.Session) (int, any, error) {
		if sess != e.session {
			return 0, nil, badRequest(errors.New("cannot add traces to a focus session; add them to the parent"))
		}
		ref := sess.Ref()
		var traces []trace.Trace
		var walRecs [][]byte
		for _, cl := range in.Classes() {
			if _, ok := ref.Executed(cl.Rep); !ok {
				return 0, nil, validationFailed(fmt.Errorf("reference FA %q rejects trace %q", ref.Name(), cl.Rep.ID))
			}
			for j := 0; j < cl.Count; j++ {
				t := cl.Rep
				t.ID = cl.IDs[j]
				traces = append(traces, t)
				if s.persist != nil {
					rec, err := walAddRecord(t)
					if err != nil {
						return 0, nil, err
					}
					walRecs = append(walRecs, rec)
				}
			}
		}
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		if e.latticeShared {
			// Copy-on-write: the cache may still serve this lattice to a
			// re-upload of the original corpus, so mutate a private copy.
			sess.DetachLattice()
			e.latticeShared = false
		}
		added, newClasses := 0, 0
		var addErr error
		applyCtx := context.WithoutCancel(ctx)
		for _, t := range traces {
			_, isNew, err := sess.AddTraceCtx(applyCtx, t)
			if err != nil {
				addErr = err
				break
			}
			added++
			if isNew {
				newClasses++
			}
		}
		if s.persist != nil {
			if err := s.persist.appendWAL(e.id, walRecs[:added]); err != nil {
				s.metrics.Counter("server.snapshot.errors").Inc()
			}
		}
		if addErr != nil {
			return 0, nil, addErr
		}
		return http.StatusOK, apiv1.AddTracesResponse{
			Added:       added,
			NewClasses:  newClasses,
			NumTraces:   sess.NumTraces(),
			NumConcepts: sess.Lattice().Len(),
		}, nil
	})
}

func (s *Server) handleSuggest(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req apiv1.SuggestRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return err
	}
	return s.withSession(w, r, func(e *entry, sess *cable.Session) (int, any, error) {
		sug, err := sess.SuggestFocus(req.Concept)
		if err != nil {
			if errors.Is(err, cable.ErrBadConcept) {
				return 0, nil, err
			}
			return 0, nil, sessionBusy(err)
		}
		var b strings.Builder
		if err := fa.Write(&b, sug.Ref); err != nil {
			return 0, nil, err
		}
		return http.StatusOK, apiv1.SuggestResponse{Template: sug.Template, RefFA: b.String()}, nil
	})
}

func (s *Server) handleFocus(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req apiv1.FocusRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return err
	}
	ref, err := fa.Read(strings.NewReader(req.RefFA))
	if err != nil {
		return badRequest(fmt.Errorf("ref_fa: %w", err))
	}
	sel, err := parseSelector(req.Selector)
	if err != nil {
		return err
	}
	return s.withSession(w, r, func(e *entry, sess *cable.Session) (int, any, error) {
		if sess != e.session {
			return 0, nil, badRequest(errors.New("nested focus is not supported over the API; end the current focus first"))
		}
		// The focus sub-lattice is deliberately built under the entry
		// lock: the focus registry lives in the parent entry, and
		// concurrent Focus/End on one session are serialized by design.
		//cablevet:ignore lockheld focus build is serialized with its session by design
		f, err := sess.Focus(req.Concept, sel, ref, cable.WithContext(ctx))
		if err != nil {
			if errors.Is(err, cable.ErrBadConcept) || ctx.Err() != nil {
				return 0, nil, err
			}
			return 0, nil, badRequest(err)
		}
		fid, err := s.store.addFocus(e, f)
		if err != nil {
			return 0, nil, err
		}
		return http.StatusCreated, apiv1.FocusResponse{
			SessionID:   fid,
			NumTraces:   f.Session().NumTraces(),
			NumConcepts: f.Session().Lattice().Len(),
		}, nil
	})
}

func (s *Server) handleEndFocus(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	res, ok := s.store.resolve(id)
	if !ok || res.focusID == "" {
		return notFound(fmt.Errorf("no focus session %q", id))
	}
	resp, err := func() (apiv1.EndFocusResponse, error) {
		res.entry.mu.Lock()
		defer res.entry.mu.Unlock()
		f, ok := res.entry.focuses[res.focusID]
		if !ok {
			return apiv1.EndFocusResponse{}, notFound(fmt.Errorf("focus session %q has already ended", id))
		}
		merged, err := f.End()
		if err != nil {
			return apiv1.EndFocusResponse{}, err
		}
		s.store.dropFocus(res.entry, res.focusID)
		if s.persist != nil {
			// The merge changed parent labels outside the WAL's record
			// vocabulary only in bulk; a fresh snapshot (which also
			// truncates the WAL) is the simplest durable form. Stream
			// records ride along so truncation doesn't lose them.
			if err := s.snapshotSession(res.entry); err != nil {
				s.metrics.Counter("server.snapshot.errors").Inc()
			}
		}
		return apiv1.EndFocusResponse{Merged: merged}, nil
	}()
	s.store.touch(res.entry)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleExportLabels(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	return s.withSession(w, r, func(e *entry, sess *cable.Session) (int, any, error) {
		export := apiv1.LabelsExport{Labels: []apiv1.LabelLine{}}
		for i, l := range sess.Labels() {
			if l != cable.Unlabeled {
				export.Labels = append(export.Labels, apiv1.LabelLine{Label: string(l), Key: sess.Set().ClassKey(i)})
			}
		}
		return http.StatusOK, export, nil
	})
}

func (s *Server) handleMetrics(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	if s.metrics == nil {
		writeJSON(w, http.StatusOK, struct{}{})
		return nil
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	return s.metrics.WriteText(w)
}
