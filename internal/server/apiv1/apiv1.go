// Package apiv1 defines the versioned JSON request and response types of
// the cabled session service. The wire format is the compatibility
// surface: handlers and clients marshal exactly these structs, and the
// golden files under testdata/ pin every shape so accidental field
// renames fail tests rather than remote tools.
//
// Traces and finite automata cross the wire in the repository's existing
// text formats (internal/trace and internal/fa), not as JSON trees: the
// formats are line-oriented, diffable, and already produced by the miner
// and the REPL's save command, so a curl invocation can lift a file
// straight into a request body.
package apiv1

// CreateSessionRequest starts a debugging session from a trace multiset
// and a reference FA, both in their text serializations.
type CreateSessionRequest struct {
	// Traces is the internal/trace text format: one "count<TAB>events"
	// class per line.
	Traces string `json:"traces"`
	// RefFA is the internal/fa text format of the reference automaton
	// whose executed-transition rows form the concept context.
	RefFA string `json:"ref_fa"`
	// Workers is accepted for compatibility with v1 clients and has no
	// effect: lattice builds are serial. A negative value is still
	// rejected with bad_request.
	Workers int `json:"workers,omitempty"`
}

// CreateSessionResponse reports the new session and its lattice size.
type CreateSessionResponse struct {
	// SessionID is the opaque handle for all later calls.
	SessionID string `json:"session_id"`
	// NumTraces is the number of distinct trace classes.
	NumTraces int `json:"num_traces"`
	// NumConcepts is the size of the built concept lattice.
	NumConcepts int `json:"num_concepts"`
	// Top is the concept ID of the lattice's top element.
	Top int `json:"top"`
	// CacheHit reports whether the lattice came from the server's cache
	// instead of a fresh build (same traces and reference FA as an
	// earlier session).
	CacheHit bool `json:"cache_hit"`
}

// SessionInfo summarizes one live session for list/describe calls. The
// shape is stable so a router tier can discover and place sessions
// without scraping: identity, creation time, class/label counts, cache
// provenance, and durability state.
type SessionInfo struct {
	SessionID   string `json:"session_id"`
	NumTraces   int    `json:"num_traces"`
	NumConcepts int    `json:"num_concepts"`
	// Labeled counts trace classes that currently carry a label.
	Labeled int `json:"labeled"`
	// Done reports whether every trace class is labeled.
	Done bool `json:"done"`
	// Focus reports whether this is a Focus sub-session; its labels merge
	// into the parent when the focus ends.
	Focus bool `json:"focus,omitempty"`
	// Parent is the owning session's ID when Focus is true.
	Parent string `json:"parent,omitempty"`
	// Created is the session's creation time, RFC 3339 UTC.
	Created string `json:"created,omitempty"`
	// CacheHit reports whether the session's lattice came from the
	// server's cache rather than a fresh build.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Snapshot is the session's durability state: "none" (nothing on
	// disk), "snapshot" (snapshot current), or "wal" (snapshot plus
	// write-ahead tail to replay). Empty when persistence is disabled.
	Snapshot string `json:"snapshot,omitempty"`
	// Streams counts the open event streams bound to this session.
	Streams int `json:"streams,omitempty"`
}

// SessionList is the list-sessions response, ordered by session ID.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
	// NextCursor resumes a paginated listing: pass it as ?cursor= to get
	// the next page. Empty on the last page.
	NextCursor string `json:"next_cursor,omitempty"`
}

// Selector picks a subset of a concept's traces, mirroring
// cable.Selector. Mode is "all", "unlabeled", or "label"; Label is
// consulted only when Mode is "label".
type Selector struct {
	Mode  string `json:"mode"`
	Label string `json:"label,omitempty"`
}

// Concept is one lattice element's summary: the Cable "list"/"info" views.
type Concept struct {
	ID int `json:"id"`
	// State is "Unlabeled", "PartlyLabeled", or "FullyLabeled".
	State string `json:"state"`
	// NumClasses is the extent size (distinct trace classes).
	NumClasses int `json:"num_classes"`
	// TotalTraces sums the classes' multiplicities.
	TotalTraces int `json:"total_traces"`
	// Similarity is the intent size — shared executed transitions.
	Similarity int   `json:"similarity"`
	Parents    []int `json:"parents"`
	Children   []int `json:"children"`
	// Transitions renders the shared reference-FA transitions; present
	// only in the single-concept view.
	Transitions []string `json:"transitions,omitempty"`
}

// ConceptList is the list-concepts response, in top-down lattice order.
type ConceptList struct {
	Concepts []Concept `json:"concepts"`
}

// LabelRequest labels traces. Either Trace names one trace class, or
// Concept plus Selector names a concept subset (the Cable "label c5 good
// unlabeled" command).
type LabelRequest struct {
	Trace    *int      `json:"trace,omitempty"`
	Concept  *int      `json:"concept,omitempty"`
	Selector *Selector `json:"selector,omitempty"`
	Label    string    `json:"label"`
}

// LabelResponse reports how many trace classes changed label.
type LabelResponse struct {
	Labeled int `json:"labeled"`
}

// TraceClass is one trace class with its current label.
type TraceClass struct {
	Index int    `json:"index"`
	Key   string `json:"key"`
	Count int    `json:"count"`
	Label string `json:"label,omitempty"`
}

// TraceList is the list-traces response.
type TraceList struct {
	Traces []TraceClass `json:"traces"`
}

// AddTracesRequest appends traces to an existing session without
// rebuilding it: the lattice is maintained incrementally. Traces whose
// event sequence matches an existing class only raise that class's
// multiplicity; novel traces become new classes (and new lattice objects)
// that start unlabeled. The whole batch is validated against the session's
// reference FA before anything is applied, so a rejected trace leaves the
// session unchanged.
type AddTracesRequest struct {
	// Traces is the internal/trace text format, as in create-session.
	Traces string `json:"traces"`
}

// AddTracesResponse reports the incremental ingestion.
type AddTracesResponse struct {
	// Added is the number of traces ingested (including duplicates).
	Added int `json:"added"`
	// NewClasses is how many of them started a new trace class.
	NewClasses int `json:"new_classes"`
	// NumTraces is the session's class count after the ingestion.
	NumTraces int `json:"num_traces"`
	// NumConcepts is the lattice size after the ingestion.
	NumConcepts int `json:"num_concepts"`
}

// SuggestRequest asks for a Focus template separating a mixed concept.
type SuggestRequest struct {
	Concept int `json:"concept"`
}

// SuggestResponse carries the winning template and its reference FA.
type SuggestResponse struct {
	// Template names the Section 4.1 template: "unordered",
	// "project <name>", or "seed <event>".
	Template string `json:"template"`
	// RefFA is the suggested automaton in the internal/fa text format,
	// ready to feed back into a focus request.
	RefFA string `json:"ref_fa"`
}

// FocusRequest opens a Focus sub-session over a concept subset with a
// different reference FA.
type FocusRequest struct {
	Concept  int       `json:"concept"`
	Selector *Selector `json:"selector,omitempty"`
	// RefFA is the focus automaton in the internal/fa text format.
	RefFA string `json:"ref_fa"`
}

// FocusResponse hands back the sub-session, usable with every session
// endpoint plus end-focus.
type FocusResponse struct {
	SessionID   string `json:"session_id"`
	NumTraces   int    `json:"num_traces"`
	NumConcepts int    `json:"num_concepts"`
}

// EndFocusResponse reports the merge when a focus sub-session ends.
type EndFocusResponse struct {
	// Merged counts the labels copied back into the parent session.
	Merged int `json:"merged"`
}

// LabelsExport is the saved-labels view: the same "<label>\t<key>" lines
// the REPL's save command writes, one entry per labeled class.
type LabelsExport struct {
	Labels []LabelLine `json:"labels"`
}

// LabelLine is one exported label.
type LabelLine struct {
	Label string `json:"label"`
	Key   string `json:"key"`
}

// LintRequest asks for an analysis of a specification FA
// (internal/speclint): the structural rules, the semantic rules
// (redundant transitions, mergeable states), optionally the
// alphabet-mismatch rule against a trace corpus, and optionally a
// language diff against a reference automaton.
type LintRequest struct {
	// FA is the internal/fa text format of the spec to lint.
	FA string `json:"fa"`
	// Traces optionally carries the internal/trace text format; when
	// present the alphabet-mismatch rule runs in both directions.
	Traces string `json:"traces,omitempty"`
	// RefFA optionally carries a reference automaton in the fa text
	// format; when present the spec is diffed against it by language, and
	// each direction of disagreement yields a language-diff finding with a
	// concrete witness trace.
	RefFA string `json:"ref_fa,omitempty"`
}

// LintFinding is one speclint diagnostic.
type LintFinding struct {
	// Spec is the automaton's name.
	Spec string `json:"spec"`
	// Rule is the stable rule slug, e.g. "unreachable-state".
	Rule string `json:"rule"`
	// Message is the human-readable diagnostic.
	Message string `json:"message"`
	// Witness, when set, is the trace key of a concrete counterexample
	// backing the finding, e.g. a trace the spec accepts but the reference
	// rejects. Witness traces are re-executed through the simulator before
	// they are reported.
	Witness string `json:"witness,omitempty"`
}

// LintResponse lists the findings; Clean mirrors len(Findings) == 0 so
// shell scripts can test one boolean.
type LintResponse struct {
	Findings []LintFinding `json:"findings"`
	Clean    bool          `json:"clean"`
}

// OpenStreamRequest opens an online-verification stream bound to a
// session: events fed to the stream are checked online, and violation
// traces append into the session's lattice live.
type OpenStreamRequest struct {
	// SessionID names the owning session.
	SessionID string `json:"session_id"`
	// Spec is the FA to verify against, in the fa text format. Empty
	// binds the stream to the session's reference FA. The usual shape is
	// a session whose reference FA is the permissive alphabet automaton
	// (the lattice vocabulary) with streams checking a stricter candidate
	// spec — then every violation window is a valid lattice object.
	Spec string `json:"spec,omitempty"`
	// Window sizes the violation ring buffer (trailing events retained
	// for counterexamples). 0 picks the server default.
	Window int `json:"window,omitempty"`
}

// OpenStreamResponse reports the new stream.
type OpenStreamResponse struct {
	// StreamID is the opaque handle for event batches and finalize.
	StreamID  string `json:"stream_id"`
	SessionID string `json:"session_id"`
	// Window is the effective ring capacity after defaulting/clamping.
	Window int `json:"window"`
	// Warnings carries non-fatal speclint findings about an explicit Spec:
	// the stream opens regardless, but a vacuous or ambiguous spec will
	// verify uselessly, so the diagnostics ride along in the response.
	Warnings []LintFinding `json:"warnings,omitempty"`
}

// StreamInfo summarizes one open stream for list/describe calls.
type StreamInfo struct {
	StreamID  string `json:"stream_id"`
	SessionID string `json:"session_id"`
	// Created is the stream's open time, RFC 3339 UTC.
	Created string `json:"created,omitempty"`
	// Spec names the FA this stream verifies against.
	Spec   string `json:"spec,omitempty"`
	Window int    `json:"window"`
	// Events is the total number of events the stream has consumed.
	Events uint64 `json:"events"`
	// Violations counts the violations detected so far.
	Violations int `json:"violations"`
	// Truncations counts events evicted from violation windows.
	Truncations uint64 `json:"truncations,omitempty"`
	// Accepting reports whether the events consumed since the last
	// violation currently form a word the specification accepts — i.e.
	// finalizing now would be clean.
	Accepting bool `json:"accepting"`
}

// StreamList is the list-streams response, ordered by stream ID.
type StreamList struct {
	Streams []StreamInfo `json:"streams"`
	// NextCursor resumes a paginated listing, as in SessionList.
	NextCursor string `json:"next_cursor,omitempty"`
}

// StreamViolation is one violation surfaced over the stream API. The
// same trace, labeled with the stream's ID, appears as a class in the
// owning session's lattice.
type StreamViolation struct {
	// Offset is the offending event's 0-based position in the stream (or
	// the stream's event count for incomplete finalizations).
	Offset uint64 `json:"offset"`
	// At is the offending event's index within Trace, or the window
	// length when the stream finalized mid-protocol.
	At int `json:"at"`
	// Trace is the windowed counterexample in trace-key form
	// ("e1; e2; ...").
	Trace string `json:"trace"`
	// Truncated reports the window overflowed: Trace is a suffix of the
	// violating behaviour.
	Truncated bool `json:"truncated,omitempty"`
	// Incomplete marks a finalize-time violation (stream ended without
	// reaching an accepting state).
	Incomplete bool `json:"incomplete,omitempty"`
}

// StreamEventsResponse reports one NDJSON batch with partial-progress
// semantics: well-formed lines are applied even when others fail, and
// each failing line comes back as an Error with its line number.
type StreamEventsResponse struct {
	// Accepted is the number of events applied from this batch.
	Accepted int `json:"accepted"`
	// Events is the stream's total consumed count after the batch.
	Events uint64 `json:"events"`
	// Violations lists the violations this batch triggered, in stream
	// order.
	Violations []StreamViolation `json:"violations,omitempty"`
	// NewClasses is how many violation traces started a new class in the
	// owning session's lattice.
	NewClasses int `json:"new_classes,omitempty"`
	// Errors lists the rejected lines (code "bad_request", line set),
	// then a failure that ended the batch early, such as a body over the
	// size limit (code "too_large").
	Errors []Error `json:"errors,omitempty"`
}

// CloseStreamResponse reports a stream's finalization.
type CloseStreamResponse struct {
	// Events and ViolationTotal are the stream's lifetime counts.
	Events uint64 `json:"events"`
	// ViolationTotal includes a final incomplete-stream violation, if any.
	ViolationTotal int `json:"violation_total"`
	// Violation is the finalize-time violation when the stream ended
	// mid-protocol; nil when the stream closed clean.
	Violation *StreamViolation `json:"violation,omitempty"`
}

// Error is the uniform failure envelope; every non-2xx response body on
// every v1 endpoint is exactly one of these, and the stream ingest
// endpoint reuses it for per-line errors.
type Error struct {
	// Code is a stable machine-readable slug: "bad_request", "not_found",
	// "session_busy", "deadline", "draining", "validation_failed",
	// "too_large", or "internal". Codes are API surface — new failures may
	// add codes, but existing codes never change meaning.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
	// Line is the 1-based input line the failure is anchored to, for
	// line-oriented request bodies (traces, FAs, NDJSON events). 0 when
	// the failure has no line.
	Line int `json:"line,omitempty"`
	// Detail carries optional machine-readable context beyond the code,
	// e.g. the subsystem that rejected a line.
	Detail string `json:"detail,omitempty"`
}
