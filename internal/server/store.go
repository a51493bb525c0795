package server

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/cable"
	"repro/internal/obs"
	"repro/internal/stream"
)

// entry is one hosted debugging session plus its open Focus sub-sessions.
// All mutation of the session — labeling, focusing, ending a focus — runs
// under the entry's mutex, so concurrent requests against one session
// serialize while requests against different sessions proceed in
// parallel. Focus sub-sessions live inside their parent's entry rather
// than as peers in the store: ending a focus touches both the sub-session
// and the parent's labels, and keeping them under a single lock removes
// any lock-ordering concern.
type entry struct {
	mu      sync.Mutex
	id      string
	session *cable.Session
	// focuses maps focus-session IDs to their live Focus handles.
	focuses map[string]*cable.Focus
	// created is the session's creation time, immutable after insert.
	created time.Time

	// lastUsed is guarded by the store's mutex (not the entry's): the
	// janitor must read it without taking every session lock, and touch
	// happens on the store-locked resolve path anyway.
	lastUsed time.Time

	// gone marks a session deleted or evicted (store.unlink): a request
	// that resolved it earlier finds it gone under mu, and nothing is
	// persisted for it any more. Guarded by mu.
	gone bool

	// Persistence state (persist.go), guarded by mu. wal is the session's
	// open write-ahead log: the first record after a snapshot opens it,
	// and the next snapshot, the drain or the session leaving the store
	// closes it. snapped marks a session whose snapshot file exists, and
	// logged one whose log holds records since that snapshot.
	wal     *os.File
	snapped bool
	logged  bool
}

// streamEntry is one open online-verification stream bound to a session.
// Its own mutex serializes event batches per stream; distinct streams
// (even on one session) ingest in parallel. Lock nesting order is
// entry.mu → streamEntry.mu (snapshotting holds a session's entry lock
// while reading its streams' states); the ingest path holds neither lock
// while acquiring the other, so the one-way order is never inverted.
type streamEntry struct {
	mu      sync.Mutex
	id      string
	ownerID string // owning top-level session's ID; immutable
	created time.Time
	// spec is the checked FA's serialized text when the stream verifies a
	// spec other than the owning session's reference FA, "" otherwise;
	// specName is the checked FA's name either way. Both immutable.
	spec     string
	specName string
	checker  *stream.Checker
	// closed marks a stream whose owning session was deleted or evicted
	// out from under it; later batches fail instead of checking against
	// a session that no longer exists. Guarded by mu.
	closed bool
}

// store owns the session table. Its RWMutex guards only the table and the
// lastUsed stamps; per-session work holds the entry mutex instead.
type store struct {
	mu      sync.RWMutex
	entries map[string]*entry
	// focusParent maps a focus-session ID to its parent entry, so focus
	// IDs resolve through the same lookup as top-level sessions.
	focusParent map[string]*entry
	// streams maps stream IDs to their entries. Streams live and die
	// with their owning session: deleting or evicting a session closes
	// its streams.
	streams map[string]*streamEntry
	metrics *obs.Metrics
	now     func() time.Time // injectable for eviction tests
	// onEvict, when set, runs with every session that leaves the table
	// (delete or idle eviction), outside all locks; the server uses it to
	// close the session's log and delete its snapshot and WAL files.
	onEvict func(e *entry)
}

func newStore(m *obs.Metrics) *store {
	return &store{
		entries:     make(map[string]*entry),
		focusParent: make(map[string]*entry),
		streams:     make(map[string]*streamEntry),
		metrics:     m,
		now:         time.Now,
	}
}

// newID returns an opaque 128-bit hex session ID.
func newID() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// add registers a session under a new ID and returns its entry.
func (st *store) add(s *cable.Session) (*entry, error) {
	id, err := newID()
	if err != nil {
		return nil, err
	}
	e := &entry{
		id:      id,
		session: s,
		created: st.now(),
		focuses: make(map[string]*cable.Focus),
	}
	st.insert(e)
	st.metrics.Counter("server.sessions.created").Inc()
	return e, nil
}

// restore registers a session under a pre-existing ID — the snapshot
// loader re-homes sessions from disk with the IDs their clients already
// hold; logged says whether its log holds records past the snapshot. A
// duplicate ID is an error rather than a silent overwrite.
func (st *store) restore(id string, s *cable.Session, logged bool) error {
	st.mu.Lock()
	_, dup := st.entries[id]
	st.mu.Unlock()
	if dup {
		return fmt.Errorf("server: restoring session %q: ID already live", id)
	}
	st.insert(&entry{id: id, session: s, created: st.now(), focuses: make(map[string]*cable.Focus),
		snapped: true, logged: logged})
	return nil
}

func (st *store) insert(e *entry) {
	st.mu.Lock()
	e.lastUsed = st.now()
	st.entries[e.id] = e
	st.metrics.Gauge("server.sessions.live").Set(int64(len(st.entries)))
	st.mu.Unlock()
}

// touch stamps an entry's idle clock. resolve already stamps at request
// start; handlers touch again at request completion so a session is never
// considered idle while (or right after) a slow request runs against it.
func (st *store) touch(e *entry) {
	st.mu.Lock()
	e.lastUsed = st.now()
	st.mu.Unlock()
}

// addFocus registers a focus sub-session under its parent entry and
// returns the focus-session ID. Callers must hold e.mu; a gone entry
// takes no focus.
func (st *store) addFocus(e *entry, f *cable.Focus) (string, error) {
	if e.gone {
		return "", notFound(fmt.Errorf("no session %q", e.id))
	}
	id, err := newID()
	if err != nil {
		return "", err
	}
	e.focuses[id] = f
	st.mu.Lock()
	st.focusParent[id] = e
	st.mu.Unlock()
	st.metrics.Counter("server.focuses.created").Inc()
	return id, nil
}

// resolved is the result of looking up a session ID: the entry to lock,
// and the focus-session ID when the ID names one.
type resolved struct {
	entry   *entry
	focusID string
}

// resolve maps a session or focus-session ID to its entry, bumping the
// idle clock. The caller locks res.entry.mu before using the session,
// and finds it gone there if a delete or eviction won the lock first.
func (st *store) resolve(id string) (resolved, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[id]; ok {
		e.lastUsed = st.now()
		return resolved{entry: e}, true
	}
	if e, ok := st.focusParent[id]; ok {
		e.lastUsed = st.now()
		// The focus handle itself is read under the entry lock by the
		// caller; only record the indirection here.
		return resolved{entry: e, focusID: id}, true
	}
	return resolved{}, false
}

// remove deletes a session and all its focus sub-sessions. It returns
// false if the ID is unknown or names a focus (focuses end, they are not
// deleted).
func (st *store) remove(id string) bool {
	st.mu.RLock()
	e, ok := st.entries[id]
	st.mu.RUnlock()
	if !ok {
		return false
	}
	e.mu.Lock()
	ok = st.unlink(e, time.Time{})
	e.mu.Unlock()
	if !ok {
		return false // a concurrent delete or eviction got there first
	}
	st.metrics.Counter("server.sessions.deleted").Inc()
	st.closeStreamsOf(id)
	if st.onEvict != nil {
		st.onEvict(e)
	}
	return true
}

// unlink is the step delete and idle eviction share: it takes a session
// out of the table with its focus IDs and marks it gone. Callers hold
// e.mu, and the store lock nests inside it (the order addFocus uses), so
// a request that resolved the session earlier and waits for its lock
// finds it gone, and no focus can register on it afterwards. unlink
// changes nothing and reports false when e has already left the table
// or, for a non-zero idleBefore, was used at or after idleBefore.
func (st *store) unlink(e *entry, idleBefore time.Time) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.entries[e.id] != e || !idleBefore.IsZero() && !e.lastUsed.Before(idleBefore) {
		return false
	}
	delete(st.entries, e.id)
	for fid := range e.focuses {
		delete(st.focusParent, fid)
	}
	st.metrics.Gauge("server.sessions.live").Set(int64(len(st.entries)))
	clear(e.focuses)
	e.gone = true
	return true
}

// dropFocus unregisters an ended focus ID. Callers must hold e.mu.
func (st *store) dropFocus(e *entry, fid string) {
	delete(e.focuses, fid)
	st.mu.Lock()
	delete(st.focusParent, fid)
	st.mu.Unlock()
}

// addStream registers an open stream under a fresh ID. The owner must be
// a live top-level session.
func (st *store) addStream(ownerID, spec, specName string, c *stream.Checker) (*streamEntry, error) {
	id, err := newID()
	if err != nil {
		return nil, err
	}
	se := &streamEntry{id: id, ownerID: ownerID, spec: spec, specName: specName, checker: c}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.entries[ownerID]; !ok {
		return nil, fmt.Errorf("server: no session %q", ownerID)
	}
	se.created = st.now()
	st.streams[id] = se
	st.metrics.Counter("server.streams.opened").Inc()
	st.metrics.Gauge("server.streams.live").Set(int64(len(st.streams)))
	return se, nil
}

// restoreStream re-registers a stream under its pre-crash ID.
func (st *store) restoreStream(id, ownerID, spec, specName string, c *stream.Checker) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.streams[id]; dup {
		return fmt.Errorf("server: restoring stream %q: ID already live", id)
	}
	if _, ok := st.entries[ownerID]; !ok {
		return fmt.Errorf("server: restoring stream %q: no session %q", id, ownerID)
	}
	st.streams[id] = &streamEntry{id: id, ownerID: ownerID, spec: spec, specName: specName, created: st.now(), checker: c}
	st.metrics.Gauge("server.streams.live").Set(int64(len(st.streams)))
	return nil
}

// resolveStream looks up a stream and bumps its owning session's idle
// clock — a session with active streams is in use even if no session
// endpoint is being called.
func (st *store) resolveStream(id string) (*streamEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	se, ok := st.streams[id]
	if !ok {
		return nil, false
	}
	if e, ok := st.entries[se.ownerID]; ok {
		e.lastUsed = st.now()
	}
	return se, true
}

// removeStream unregisters a stream (finalize). The caller finalizes the
// checker; the entry is returned so it can.
func (st *store) removeStream(id string) (*streamEntry, bool) {
	st.mu.Lock()
	se, ok := st.streams[id]
	if ok {
		delete(st.streams, id)
		st.metrics.Gauge("server.streams.live").Set(int64(len(st.streams)))
	}
	st.mu.Unlock()
	if ok {
		st.metrics.Counter("server.streams.finalized").Inc()
	}
	return se, ok
}

// streamsOf snapshots the streams owned by one session, ordered by ID.
// Safe to call while holding the owner's entry lock (order entry→store).
func (st *store) streamsOf(ownerID string) []*streamEntry {
	st.mu.RLock()
	var out []*streamEntry
	for _, se := range st.streams {
		if se.ownerID == ownerID {
			out = append(out, se)
		}
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// listStreams snapshots all open streams, ordered by ID.
func (st *store) listStreams() []*streamEntry {
	st.mu.RLock()
	out := make([]*streamEntry, 0, len(st.streams))
	for _, se := range st.streams {
		out = append(out, se)
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// closeStreamsOf unregisters and closes every stream of a dead session.
// Runs outside all other locks (after the session left the table); a
// batch in flight on one of these streams finishes its feed and then
// finds the owner gone.
func (st *store) closeStreamsOf(ownerID string) {
	st.mu.Lock()
	var dead []*streamEntry
	for id, se := range st.streams {
		if se.ownerID == ownerID {
			dead = append(dead, se)
			delete(st.streams, id)
		}
	}
	st.metrics.Gauge("server.streams.live").Set(int64(len(st.streams)))
	st.mu.Unlock()
	for _, se := range dead {
		se.mu.Lock()
		se.closed = true
		se.mu.Unlock()
	}
}

// list snapshots the live top-level session IDs with their entries.
func (st *store) list() []*entry {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]*entry, 0, len(st.entries))
	for _, e := range st.entries {
		out = append(out, e)
	}
	return out
}

// evictIdle removes sessions untouched for longer than maxIdle and
// returns how many were evicted.
//
// The sweep must not race with in-flight requests: a handler that holds
// the entry lock past the idle horizon (a slow label batch, a focus
// build) would previously see its session deleted out from under it, and
// the completed work silently discarded. The janitor therefore claims
// each candidate with TryLock — an entry whose lock is contended is in
// use by definition, so it is skipped and retried on the next sweep —
// and re-verifies staleness under the store lock before deleting, since
// the request that held the lock touched the entry at completion.
func (st *store) evictIdle(maxIdle time.Duration) int {
	if maxIdle <= 0 {
		return 0
	}
	cutoff := st.now().Add(-maxIdle)
	st.mu.RLock()
	var stale []*entry
	for _, e := range st.entries {
		if e.lastUsed.Before(cutoff) {
			stale = append(stale, e)
		}
	}
	st.mu.RUnlock()
	var evicted []*entry
	for _, e := range stale {
		if !e.mu.TryLock() {
			continue // in use right now; next sweep retries
		}
		// unlink re-checks staleness under the store lock: the request
		// that held the entry lock touched the entry at completion.
		ok := st.unlink(e, cutoff)
		e.mu.Unlock()
		if ok {
			evicted = append(evicted, e)
		}
	}
	if len(evicted) > 0 {
		st.metrics.Counter("server.sessions.evicted").Add(int64(len(evicted)))
	}
	// Stream closure and file cleanup run outside every lock.
	for _, e := range evicted {
		st.closeStreamsOf(e.id)
	}
	if st.onEvict != nil {
		for _, e := range evicted {
			st.onEvict(e)
		}
	}
	return len(evicted)
}
