// Stream endpoints: online runtime verification over live sessions.
//
// A stream binds an internal/stream.Checker to a spec FA — the owning
// session's reference FA by default, or an explicit (usually stricter)
// spec supplied at open time, with the session's reference FA serving as
// the lattice vocabulary the violation windows land in.
// Event batches arrive as NDJSON; the checker advances its frontier with
// bounded memory, and every violation's windowed counterexample is
// appended into the owning session via Session.AddTraceCtx — the lattice
// and labels stay live while streams run.
//
// Concurrency: each batch holds only the stream's own lock while it
// feeds events and renders the stream's WAL record (so one slow stream
// never blocks another, nor any session endpoint), then releases it and
// takes the owning session's entry lock to append violations and
// persist. Neither lock is held while acquiring the other on this path;
// the only sanctioned nesting is entry → stream, used by
// snapshotSession.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/fa"
	"repro/internal/server/apiv1"
	"repro/internal/speclint"
	"repro/internal/stream"
	"repro/internal/trace"
)

// maxStreamBatch bounds one NDJSON batch body; the lines before the limit
// are applied and the rest is refused with a too_large line error.
const maxStreamBatch = 64 << 20

func (s *Server) handleOpenStream(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req apiv1.OpenStreamRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return err
	}
	if req.SessionID == "" {
		return badRequest(errors.New(`"session_id" is required`))
	}
	if req.Window < 0 {
		return badRequest(fmt.Errorf("window: negative size %d", req.Window))
	}
	res, ok := s.store.resolve(req.SessionID)
	if !ok {
		return notFound(fmt.Errorf("no session %q", req.SessionID))
	}
	if res.focusID != "" {
		return badRequest(errors.New("streams bind to top-level sessions, not focus sessions"))
	}
	// With no explicit spec the stream verifies the session's reference
	// FA, reusing its compiled plan — opening a stream never recompiles.
	// An explicit spec compiles once here and is shared by every event
	// batch on this stream.
	ref := res.entry.session.Ref()
	sim, specName := ref.Sim(), ref.Name()
	specText := ""
	var warnings []apiv1.LintFinding
	if req.Spec != "" {
		spec, err := fa.Read(strings.NewReader(req.Spec))
		if err != nil {
			return badRequest(fmt.Errorf("spec: %w", err))
		}
		var canon strings.Builder
		if err := fa.Write(&canon, spec); err != nil {
			return badRequest(fmt.Errorf("spec: %w", err))
		}
		sim = spec.Sim()
		specName = spec.Name()
		specText = canon.String()
		// A defective spec still opens — maybe the caller wants exactly
		// that automaton — but a vacuous or ambiguous one verifies
		// uselessly, so speclint's findings ride along as warnings.
		warnings = lintFindings(speclint.LintAll(spec))
	}
	chk := stream.New(sim, stream.Config{Window: req.Window})
	se, err := s.store.addStream(req.SessionID, specText, specName, chk)
	if err != nil {
		return notFound(err)
	}
	if s.persist != nil {
		// The stream is listable once added, so a batch may already be
		// feeding it: the record is rendered under its lock.
		se.mu.Lock()
		rec := walStreamRecord(se.id, se.spec, false, chk.State())
		se.mu.Unlock()
		res.entry.mu.Lock()
		perr := s.persist.appendWAL(res.entry, [][]byte{rec})
		res.entry.mu.Unlock()
		if perr != nil {
			s.metrics.Counter("server.snapshot.errors").Inc()
		}
	}
	writeJSON(w, http.StatusCreated, apiv1.OpenStreamResponse{
		StreamID:  se.id,
		SessionID: req.SessionID,
		Window:    chk.Window(),
		Warnings:  warnings,
	})
	return nil
}

// streamInfo snapshots one stream's DTO under its lock.
func streamInfo(se *streamEntry) apiv1.StreamInfo {
	se.mu.Lock()
	defer se.mu.Unlock()
	return apiv1.StreamInfo{
		StreamID:    se.id,
		SessionID:   se.ownerID,
		Created:     se.created.UTC().Format(time.RFC3339),
		Spec:        se.specName,
		Window:      se.checker.Window(),
		Events:      se.checker.Events(),
		Violations:  se.checker.Violations(),
		Truncations: se.checker.Truncations(),
		Accepting:   se.checker.Accepting(),
	}
}

func (s *Server) handleListStreams(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	cursor, limit, err := pageParams(r)
	if err != nil {
		return err
	}
	all := s.store.listStreams()
	if sid := r.URL.Query().Get("session"); sid != "" {
		filtered := all[:0:0]
		for _, se := range all {
			if se.ownerID == sid {
				filtered = append(filtered, se)
			}
		}
		all = filtered
	}
	pageStreams, next := page(all, func(se *streamEntry) string { return se.id }, cursor, limit)
	list := apiv1.StreamList{Streams: make([]apiv1.StreamInfo, 0, len(pageStreams)), NextCursor: next}
	for _, se := range pageStreams {
		list.Streams = append(list.Streams, streamInfo(se))
	}
	writeJSON(w, http.StatusOK, list)
	return nil
}

func (s *Server) handleGetStream(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	se, ok := s.store.resolveStream(id)
	if !ok {
		return notFound(fmt.Errorf("no stream %q", id))
	}
	writeJSON(w, http.StatusOK, streamInfo(se))
	return nil
}

// violationDTO renders one stream violation for the wire.
func violationDTO(v stream.Violation) apiv1.StreamViolation {
	return apiv1.StreamViolation{
		Offset:     v.Offset,
		At:         v.At,
		Trace:      v.Trace.Key(),
		Truncated:  v.Truncated,
		Incomplete: v.Incomplete(),
	}
}

// appendViolations pushes a batch's violation traces into the owning
// session (entry lock held inside), returning how many started new
// lattice classes. Violation trace IDs carry provenance:
// "<streamID>@<offset>". streamRec, the stream's WAL record that the
// caller rendered under the stream lock (nil with persistence off), rides
// along into the session's WAL so a crash resumes the stream where it
// left off. The stream checker has already consumed the batch, so it is
// applied whole and logged whatever ctx says: its WAL records are encoded
// before the first mutation, and the adds run under a context that is
// never cancelled. A session deleted while the batch was in flight takes
// nothing: the stream is doomed (closeStreamsOf marks it), and the
// violations count as orphans.
func (s *Server) appendViolations(ctx context.Context, se *streamEntry, violations []stream.Violation, streamRec []byte) (int, error) {
	if len(violations) == 0 && s.persist == nil {
		return 0, nil
	}
	orphans := func() (int, error) {
		s.metrics.Counter("server.stream.orphan_violations").Add(int64(len(violations)))
		return 0, nil
	}
	res, ok := s.store.resolve(se.ownerID)
	if !ok {
		return orphans()
	}
	newClasses, gone := 0, false
	err := func() error {
		res.entry.mu.Lock()
		defer res.entry.mu.Unlock()
		e, sess := res.entry, res.entry.session
		if e.gone {
			gone = true
			return nil
		}
		traces := make([]trace.Trace, len(violations))
		var walRecs [][]byte
		for i, v := range violations {
			traces[i] = v.Trace
			traces[i].ID = fmt.Sprintf("%s@%d", se.id, v.Offset)
			if s.persist != nil {
				rec, err := walAddRecord(traces[i])
				if err != nil {
					return err
				}
				walRecs = append(walRecs, rec)
			}
		}
		logged := walRecs[:0] // the records of the traces the session took
		for i, t := range traces {
			_, isNew, err := sess.AddTraceCtx(context.WithoutCancel(ctx), t)
			if err != nil {
				// The session's reference FA rejects the window — it can
				// happen when the stream checks the reference FA itself, or
				// when the window carries events outside the session
				// alphabet. The violation still reaches the client; it just
				// cannot become a lattice object.
				s.metrics.Counter("server.stream.append_rejected").Inc()
				continue
			}
			if isNew {
				newClasses++
			}
			if s.persist != nil {
				logged = append(logged, walRecs[i])
			}
		}
		if s.persist != nil {
			recs := [][]byte{streamRec} // a clean batch logs its stream record alone
			if len(logged) > 0 {
				recs = append(logged, streamRec)
			}
			if err := s.persist.appendWAL(e, recs); err != nil {
				s.metrics.Counter("server.snapshot.errors").Inc()
			}
		}
		return nil
	}()
	if gone {
		return orphans()
	}
	s.store.touch(res.entry)
	return newClasses, err
}

func (s *Server) handleStreamEvents(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	se, ok := s.store.resolveStream(id)
	if !ok {
		return notFound(fmt.Errorf("no stream %q", id))
	}
	// Built outside the stream lock: it holds w, though over the limit it
	// only marks the connection for closing and writes nothing.
	body := http.MaxBytesReader(w, r.Body, maxStreamBatch)
	var violations []stream.Violation
	var rec []byte
	var events uint64
	accepted, issues, fatal := 0, []stream.LineIssue(nil), error(nil)
	func() {
		se.mu.Lock()
		defer se.mu.Unlock()
		if se.closed {
			fatal = notFound(fmt.Errorf("stream %q: owning session is gone", id))
			return
		}
		// The body is consumed under the stream lock on purpose: events
		// must apply in arrival order per stream, and the lock scopes to
		// this one stream only.
		accepted, issues, fatal = stream.Ingest(se.checker, body,
			func(v stream.Violation) { violations = append(violations, v) })
		events = se.checker.Events()
		if s.persist != nil {
			rec = walStreamRecord(se.id, se.spec, false, se.checker.State())
		}
	}()
	if fatal != nil {
		// Declared here, not above: errors.As moves he to the heap.
		var he *httpError
		if errors.As(fatal, &he) {
			return fatal // closed-stream rejection, nothing was fed
		}
	}
	s.metrics.Counter("server.stream.events").Add(int64(accepted))
	s.metrics.Counter("server.stream.violations").Add(int64(len(violations)))
	newClasses, err := s.appendViolations(ctx, se, violations, rec)
	if err != nil {
		return err
	}
	resp := apiv1.StreamEventsResponse{
		Accepted:   accepted,
		Events:     events,
		NewClasses: newClasses,
	}
	for _, v := range violations {
		resp.Violations = append(resp.Violations, violationDTO(v))
	}
	for _, iss := range issues {
		resp.Errors = append(resp.Errors, errorEnvelope("bad_request", iss.Err))
	}
	if fatal != nil {
		// Unreadable remainder (oversized batch or line, transport
		// failure): the lines fed so far are applied; report the failure
		// as a final line error so the client sees the partial progress.
		code := "bad_request"
		if errors.As(fatal, new(*http.MaxBytesError)) {
			code = "too_large"
		}
		resp.Errors = append(resp.Errors, errorEnvelope(code, fatal))
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func (s *Server) handleCloseStream(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	se, ok := s.store.removeStream(id)
	if !ok {
		return notFound(fmt.Errorf("no stream %q", id))
	}
	var tombstone []byte
	se.mu.Lock()
	v, fired := se.checker.Finalize()
	events, total := se.checker.Events(), se.checker.Violations()
	if s.persist != nil {
		tombstone = walStreamRecord(se.id, se.spec, true, se.checker.State())
	}
	se.mu.Unlock()
	var violations []stream.Violation
	if fired {
		s.metrics.Counter("server.stream.violations").Inc()
		violations = append(violations, v)
	}
	if _, err := s.appendViolations(ctx, se, violations, tombstone); err != nil {
		return err
	}
	resp := apiv1.CloseStreamResponse{
		Events:         events,
		ViolationTotal: total,
	}
	if fired {
		dto := violationDTO(v)
		resp.Violation = &dto
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}
