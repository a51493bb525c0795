// Session persistence: crash-safe snapshots plus a write-ahead log of
// labeling actions, so a killed or restarted cabled process restores its
// live sessions with every label intact.
//
// Each session owns two files under the snapshot directory:
//
//	<id>.snap — full session state, written atomically (temp + rename):
//
//	    "CSNP" | ver u8 (2) |
//	    str sessionID | str traces | str refFA |
//	    u32 numLabels | numLabels × str label |
//	    u32 crc32(IEEE, everything before the trailer)
//
//	    Version 1 also stored the session's lattice (u64 latticeLen |
//	    lattice bytes) before the CRC. Its files still restore: the
//	    lattice bytes are skipped, never decoded, because restore builds
//	    the lattice from the stored traces and reference FA, exactly as
//	    session creation does.
//
//	<id>.wal — actions since the snapshot, append-only:
//
//	    "CWAL" | ver u8 (1) | record*
//	    record := u8 type | u32 len | payload[len] |
//	              u32 crc32(IEEE, type|len|payload)
//	    type 1 (label):      payload = str classKey | str label
//	    type 2 (add-trace):  payload = str traceText (one trace record)
//	    type 3 (stream):     payload = str streamID | str specFA | u8 closed |
//	                         u32 window | u64 events | u64 sinceReset |
//	                         u64 truncations | u32 violations | u8 truncated |
//	                         u32 nFrontier × u32 stateID |
//	                         u32 nRing × str eventText
//	                         (specFA is the checked FA's serialized text,
//	                         or "" when the stream checks the session's
//	                         reference FA)
//
// str is u32 length + bytes, little-endian throughout (internal/binio);
// the u8 flags are 0 or 1, and ring events are in event.Event's canonical
// rendering. The snapshot is rewritten — and the WAL truncated — whenever
// the full labeling changes shape outside the WAL's vocabulary (focus
// merges, graceful drain); WAL records carry trace-class *keys*, not
// indices, so replay stays correct even though adds change the class
// numbering. Replay stops at the first record whose CRC or structure
// fails, and the loader cuts the log back to the records it replayed:
// a torn tail loses that record only, never the session nor a record
// appended after the restart. Open focus sub-sessions are deliberately
// not persisted — a crash mid-focus restores the parent as of the last
// snapshot plus WAL; the focus's unmerged labels are lost, matching the
// paper's model of focus sessions as scratch workspaces.
//
// Stream records externalize an open online-verification stream's
// checker (internal/stream.State): every ingest batch appends one, and
// closed=1 is a tombstone. Replay keeps each stream ID's most advanced
// record, the one with the largest events count, a tombstone winning a
// tie (see advances). Because writing a snapshot truncates the WAL, the
// server re-appends one stream record per open stream right after every
// snapshot, so open frontiers survive snapshot-then-crash.
//
// A session keeps its log open between requests (entry.wal), so an
// acknowledged request costs one write(2): the first record after a
// snapshot opens the file, and the next snapshot, the drain, a delete or
// an idle eviction closes it. A session therefore holds at most one
// descriptor, and only while its log holds records the snapshot does
// not. Nothing is fsynced: a 2xx means the records are in the page
// cache, which survives a killed process but not a power loss.
package server

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/binio"
	"repro/internal/cable"
	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
)

const (
	snapMagic     = "CSNP"
	snapVer       = 2
	walMagic      = "CWAL"
	walVer        = 1
	walTypeLbl    = 1
	walTypeAdd    = 2
	walTypeStream = 3
	maxPersistStr = 256 << 20 // matches the request-body ceiling with headroom
)

// persister owns the snapshot directory. A nil *persister (no -snapshot-dir)
// turns every method into a cheap no-op check at the call sites.
type persister struct {
	dir     string
	metrics *obs.Metrics
}

func newPersister(dir string, m *obs.Metrics) (*persister, error) {
	if dir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: snapshot dir: %w", err)
	}
	return &persister{dir: dir, metrics: m}, nil
}

func (p *persister) snapPath(id string) string { return filepath.Join(p.dir, id+".snap") }
func (p *persister) walPath(id string) string  { return filepath.Join(p.dir, id+".wal") }
func (p *persister) tmpPath(id string) string  { return p.snapPath(id) + ".tmp" }

// --- snapshot files ---

// snapData is a .snap file's fields, still in wire form: the caller turns
// the text payloads back into a live session.
type snapData struct {
	id     string
	traces string
	ref    string
	labels []cable.Label
}

// writeSnap atomically persists the session's full state and truncates
// its WAL (the snapshot now subsumes every logged action). Callers hold
// e.mu; a gone session writes nothing. A failed snapshot leaves the log
// open and in place, so later records keep appending to it.
func (p *persister) writeSnap(e *entry) error {
	if e.gone {
		return nil
	}
	id := e.id
	sc := getScratch()
	defer putScratch(sc)
	snap, err := appendSnap(sc.b[:0], id, e.session)
	sc.b = snap
	if err != nil {
		return fmt.Errorf("server: snapshot %s: %w", id, err)
	}

	tmp := p.tmpPath(id)
	err = os.WriteFile(tmp, snap, 0o644)
	if err == nil {
		err = os.Rename(tmp, p.snapPath(id))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: snapshot %s: %w", id, err)
	}
	e.snapped = true
	// The snapshot includes everything; the log starts over.
	_ = closeWAL(e) // deleted next, so a close error loses nothing
	if err := os.Remove(p.walPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("server: snapshot %s: truncating wal: %w", id, err)
	}
	e.logged = false
	p.metrics.Counter("server.snapshot.save").Inc()
	return nil
}

// appendSnap appends session sess's .snap file in the current version,
// CRC trailer included, to w. The trace and FA texts render in place
// behind length marks. The bytes are those snapData.encode (the _test.go
// oracle) makes of the same fields.
func appendSnap(w binio.Writer, id string, sess *cable.Session) (binio.Writer, error) {
	w = append(w, snapMagic...)
	w.U8(snapVer)
	w.Str(id)
	at := w.Mark()
	for _, c := range sess.Set().Classes() {
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			var err error
			if w, err = trace.AppendRecord(w, t); err != nil {
				return w, fmt.Errorf("traces: %w", err)
			}
		}
	}
	w.Fill(at)
	at = w.Mark()
	w, err := fa.AppendText(w, sess.Ref())
	if err != nil {
		return w, fmt.Errorf("ref fa: %w", err)
	}
	w.Fill(at)
	labels := sess.Labels()
	w.U32(uint32(len(labels)))
	for _, l := range labels {
		w.Str(string(l))
	}
	w.Seal(0)
	return w, nil
}

// parseSnap validates and decodes a .snap file of version 1 or 2,
// checking its CRC before it decodes anything.
func parseSnap(data []byte) (snapData, error) {
	payload, err := binio.Unseal(data)
	if err != nil {
		return snapData{}, fmt.Errorf("server: snapshot: %w", err)
	}
	r := binio.NewReader(payload)
	magic, ver := r.Bytes(len(snapMagic)), r.U8()
	if string(magic) != snapMagic || ver < 1 || ver > snapVer {
		return snapData{}, fmt.Errorf("server: snapshot: bad magic %q or unsupported version %d", magic, ver)
	}
	sd := snapData{id: r.Str(maxPersistStr), traces: r.Str(maxPersistStr), ref: r.Str(maxPersistStr)}
	// One label per trace class: only the input's length bounds them.
	sd.labels = make([]cable.Label, r.Count(4, math.MaxInt32))
	for i := range sd.labels {
		sd.labels[i] = cable.Label(r.Str(maxPersistStr))
	}
	if ver == 1 {
		// The lattice dump: derived from the traces and the reference
		// FA, so it is skipped, not decoded.
		r.Bytes(int(r.U64()))
	}
	if err := r.Err(); err != nil {
		return snapData{}, fmt.Errorf("server: snapshot: %w", err)
	}
	if r.Len() > 0 {
		return snapData{}, fmt.Errorf("server: snapshot: %d trailing bytes", r.Len())
	}
	return sd, nil
}

// --- write-ahead log ---

// beginRecord starts a WAL record of type typ in a buffer with room for a
// payload of n bytes: the type, then the payload length that endRecord
// fills in.
func beginRecord(typ byte, n int) binio.Writer {
	w := make(binio.Writer, 0, 1+4+n+4)
	w.U8(typ)
	w.Mark()
	return w
}

// endRecord fills in the record's payload length and appends its CRC.
func endRecord(w binio.Writer) []byte {
	w.Fill(1)
	w.Seal(0)
	return w
}

// walLabelRecord logs "class <key> now carries <label>".
func walLabelRecord(key, label string) []byte {
	w := beginRecord(walTypeLbl, 8+len(key)+len(label))
	w.Str(key)
	w.Str(label)
	return endRecord(w)
}

// walAddRecord logs one ingested trace in the trace text format,
// rendered in place behind its length mark.
func walAddRecord(t trace.Trace) ([]byte, error) {
	// "trace ", the ID and its newline, "end\n", and per event its
	// indent and newline around its rendering.
	n := 11 + len(t.ID)
	for _, e := range t.Events {
		n += 3 + renderBound(e)
	}
	w := beginRecord(walTypeAdd, 4+n)
	at := w.Mark()
	w, err := trace.AppendRecord(w, t)
	if err != nil {
		return nil, err
	}
	w.Fill(at)
	return endRecord(w), nil
}

// renderBound bounds the length of e's canonical rendering: its names,
// " = ", the parentheses and a ", " per argument.
func renderBound(e event.Event) int {
	n := 5 + len(e.Def) + len(e.Op)
	for _, u := range e.Uses {
		n += 2 + len(u)
	}
	return n
}

// walStreamRecord externalizes one open stream's checker state (or its
// tombstone when closed).
func walStreamRecord(streamID, spec string, closed bool, st stream.State) []byte {
	n := 50 + len(streamID) + len(spec) + 4*len(st.Frontier)
	for _, e := range st.Ring {
		n += 4 + renderBound(e)
	}
	w := beginRecord(walTypeStream, n)
	w.Str(streamID)
	w.Str(spec)
	w.Bool(closed)
	w.U32(uint32(st.Window))
	w.U64(st.Events)
	w.U64(st.SinceReset)
	w.U64(st.Truncations)
	w.U32(uint32(st.Violations))
	w.Bool(st.Truncated)
	w.U32(uint32(len(st.Frontier)))
	for _, q := range st.Frontier {
		w.U32(uint32(q))
	}
	w.U32(uint32(len(st.Ring)))
	for _, e := range st.Ring {
		at := w.Mark()
		w = e.AppendString(w)
		w.Fill(at)
	}
	return endRecord(w)
}

// parseRecord decodes one record after checking its CRC. Every byte must
// belong to a field, and ring events must be in the canonical form the
// writer renders, so re-encoding an action reproduces its record.
func parseRecord(rec []byte) (walAction, error) {
	body, err := binio.Unseal(rec)
	if err != nil {
		return walAction{}, err
	}
	r := binio.NewReader(body)
	a := walAction{typ: r.U8()}
	r.U32() // the payload length, which parseWAL checked
	switch a.typ {
	case walTypeLbl:
		a.key, a.label = r.Str(maxPersistStr), r.Str(maxPersistStr)
	case walTypeAdd:
		a.text = r.Str(maxPersistStr)
	case walTypeStream:
		a.streamID, a.streamSpec, a.streamClosed = r.Str(maxPersistStr), r.Str(maxPersistStr), r.Bool()
		st := &a.streamState
		st.Window = int(r.U32())
		st.Events, st.SinceReset, st.Truncations = r.U64(), r.U64(), r.U64()
		st.Violations = int(r.U32())
		st.Truncated = r.Bool()
		st.Frontier = make([]int, r.Count(4, stream.MaxWindow*1024))
		for i := range st.Frontier {
			st.Frontier[i] = int(r.U32())
		}
		st.Ring = make([]event.Event, r.Count(4, stream.MaxWindow))
		for i := range st.Ring {
			text := r.Str(maxPersistStr)
			if st.Ring[i], err = event.Parse(text); err != nil || st.Ring[i].String() != text {
				r.Fail(fmt.Errorf("ring event %q is not an event in canonical form", text))
			}
		}
	default:
		// Unknown record type: written by a newer version; stop rather
		// than misinterpret what follows.
		return a, fmt.Errorf("unknown record type %d", a.typ)
	}
	if r.Len() > 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", r.Len()))
	}
	return a, r.Err()
}

// appendWAL appends framed records to the session's log in one write.
// The first record after a snapshot opens the log, creating it with its
// header when it is empty; the handle stays on the entry for later
// appends. Callers hold e.mu, which serializes appends per session; a
// gone session logs nothing.
func (p *persister) appendWAL(e *entry, recs [][]byte) error {
	if len(recs) == 0 || e.gone {
		return nil
	}
	if e.wal == nil {
		f, err := os.OpenFile(p.walPath(e.id), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("server: wal %s: %w", e.id, err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("server: wal %s: %w", e.id, err)
		}
		if st.Size() == 0 {
			recs = append([][]byte{append([]byte(walMagic), walVer)}, recs...)
		}
		e.wal, e.logged = f, true
	}
	buf := recs[0]
	if len(recs) > 1 {
		buf = slices.Concat(recs...)
	}
	if _, err := e.wal.Write(buf); err != nil {
		return fmt.Errorf("server: wal %s: %w", e.id, err)
	}
	return nil
}

// closeWAL closes the session's open log, if any. Callers hold e.mu.
func closeWAL(e *entry) error {
	if e.wal == nil {
		return nil
	}
	err := e.wal.Close()
	e.wal = nil
	return err
}

// walAction is one decoded WAL record.
type walAction struct {
	typ   byte
	key   string // label records
	label string // label records
	text  string // add records

	// stream records
	streamID     string
	streamSpec   string
	streamClosed bool
	streamState  stream.State
}

// parseWAL decodes records until the data ends or a record fails its CRC
// or structure check, and returns them with the length of the valid
// prefix they end (0 when the header fails). A torn tail yields the
// valid prefix, never an error — the session restores to the last
// durable action.
func parseWAL(data []byte) ([]walAction, int) {
	r := binio.NewReader(data)
	if magic, ver := r.Bytes(len(walMagic)), r.U8(); string(magic) != walMagic || ver != walVer {
		return nil, 0
	}
	var out []walAction
	valid := len(data) - r.Len()
	for r.Len() > 0 {
		rec := data[len(data)-r.Len():]
		r.U8()
		n := r.Count(1, maxPersistStr)
		r.Bytes(n + 4) // the payload and the CRC
		if r.Err() != nil {
			break
		}
		a, err := parseRecord(rec[:9+n])
		if err != nil {
			break
		}
		out = append(out, a)
		valid = len(data) - r.Len()
	}
	return out, valid
}

// removeFiles closes a session's log and deletes its snapshot, WAL and
// any snapshot temp file; called after the session leaves the store
// (delete or idle eviction). store.unlink has already marked the session
// gone under its lock, so a request that resolved the session earlier
// cannot re-create a file.
func (p *persister) removeFiles(e *entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_ = closeWAL(e) // the log is deleted next
	_ = os.Remove(p.snapPath(e.id))
	_ = os.Remove(p.walPath(e.id))
	_ = os.Remove(p.tmpPath(e.id))
}

// durability reports a session's durability form for introspection:
// "wal" (snapshot plus a write-ahead tail), "snapshot" (snapshot only),
// or "none". Callers hold e.mu.
func durability(e *entry) string {
	switch {
	case e.logged:
		return "wal"
	case e.snapped:
		return "snapshot"
	}
	return "none"
}

// --- server lifecycle hooks ---

// LoadSnapshots restores every persisted session from the snapshot
// directory: parse the .snap, build the cable session from its traces and
// reference FA as session creation does, reapply the snapshotted labels,
// then replay the WAL. It returns how many sessions came back. A snapshot
// that is corrupt, or whose reference FA rejects one of its traces, is
// skipped (counted in server.snapshot.load_errors, its files left in
// place) so one bad file cannot hold the whole service down; a torn WAL
// tail replays its valid prefix. A .snap.tmp file is a snapshot write
// whose rename never happened, so the .snap and .wal beside it still hold
// everything acknowledged: it is deleted.
func (s *Server) LoadSnapshots(ctx context.Context) (int, error) {
	if s.persist == nil {
		return 0, nil
	}
	des, err := os.ReadDir(s.persist.dir)
	if err != nil {
		return 0, fmt.Errorf("server: snapshot dir: %w", err)
	}
	loaded := 0
	for _, de := range des {
		name := de.Name()
		if !de.IsDir() && strings.HasSuffix(name, ".snap.tmp") {
			_ = os.Remove(filepath.Join(s.persist.dir, name))
		}
		if de.IsDir() || !strings.HasSuffix(name, ".snap") {
			continue
		}
		id := strings.TrimSuffix(name, ".snap")
		if err := s.loadOne(ctx, id); err != nil {
			s.metrics.Counter("server.snapshot.load_errors").Inc()
			continue
		}
		s.metrics.Counter("server.snapshot.load").Inc()
		loaded++
	}
	return loaded, nil
}

// loadOne restores a single session from <id>.snap (+ optional WAL).
func (s *Server) loadOne(ctx context.Context, id string) error {
	data, err := os.ReadFile(s.persist.snapPath(id))
	if err != nil {
		return err
	}
	sd, err := parseSnap(data)
	if err != nil {
		return err
	}
	if sd.id != id {
		return fmt.Errorf("server: snapshot %s claims ID %q", id, sd.id)
	}
	set, err := trace.Read(strings.NewReader(sd.traces))
	if err != nil {
		return fmt.Errorf("server: snapshot %s: traces: %w", id, err)
	}
	ref, err := fa.Read(strings.NewReader(sd.ref))
	if err != nil {
		return fmt.Errorf("server: snapshot %s: ref fa: %w", id, err)
	}
	if len(sd.labels) != set.NumClasses() {
		return fmt.Errorf("server: snapshot %s: %d labels for %d classes", id, len(sd.labels), set.NumClasses())
	}
	sess, err := cable.NewSession(set, ref, cable.WithContext(ctx), cable.WithObs(s.metrics))
	if err != nil {
		return fmt.Errorf("server: snapshot %s: %w", id, err)
	}
	for i, l := range sd.labels {
		if l == cable.Unlabeled {
			continue
		}
		if err := sess.LabelTrace(i, l); err != nil {
			return fmt.Errorf("server: snapshot %s: %w", id, err)
		}
	}
	var actions []walAction
	if wdata, err := os.ReadFile(s.persist.walPath(id)); err == nil {
		var valid int
		actions, valid = parseWAL(wdata)
		replayed, err := replayWAL(ctx, sess, actions)
		if err != nil {
			return fmt.Errorf("server: snapshot %s: wal: %w", id, err)
		}
		// Cut a torn tail off before the session goes live: the next
		// append must follow the last record replay accepted, or the next
		// restart would stop at the torn bytes and drop it. A failed
		// header leaves an empty log, which the next append re-heads.
		if valid < len(wdata) {
			if err := os.Truncate(s.persist.walPath(id), int64(valid)); err != nil {
				return fmt.Errorf("server: snapshot %s: wal: %w", id, err)
			}
		}
		s.metrics.Counter("server.snapshot.replay").Add(int64(replayed))
	}
	if err := s.store.restore(id, sess, len(actions) > 0); err != nil {
		return err
	}
	// Re-open the session's streams from their most advanced records
	// (closed records are tombstones). A record that no longer matches
	// the reference FA — e.g. a frontier state out of range — loses that
	// stream only, not the session.
	latest := map[string]walAction{}
	for _, a := range actions {
		if a.typ != walTypeStream {
			continue
		}
		if b, ok := latest[a.streamID]; !ok || advances(a, b) {
			latest[a.streamID] = a
		}
	}
	for sid, a := range latest {
		if a.streamClosed {
			continue
		}
		sim := sess.Ref().Sim()
		specName := sess.Ref().Name()
		if a.streamSpec != "" {
			spec, err := fa.Read(strings.NewReader(a.streamSpec))
			if err != nil {
				s.metrics.Counter("server.snapshot.load_errors").Inc()
				continue
			}
			sim = spec.Sim()
			specName = spec.Name()
		}
		chk, err := stream.Restore(sim, a.streamState)
		if err != nil {
			s.metrics.Counter("server.snapshot.load_errors").Inc()
			continue
		}
		if err := s.store.restoreStream(sid, id, a.streamSpec, specName, chk); err != nil {
			s.metrics.Counter("server.snapshot.load_errors").Inc()
		}
	}
	return nil
}

// advances reports whether stream record a supersedes b, an earlier
// record of the same stream: a has consumed more events, or as many and
// b is not a tombstone. Log order alone cannot tell: batches feed in
// order under the stream lock but append their records under the session
// lock in whatever order they reach it, and a batch that resolved its
// stream before a close feeds nothing after Finalize yet still logs an
// open record, which can land after the tombstone.
func advances(a, b walAction) bool {
	if a.streamState.Events != b.streamState.Events {
		return a.streamState.Events > b.streamState.Events
	}
	return a.streamClosed || !b.streamClosed
}

// replayWAL applies logged actions to a restored session, in order.
// Class keys that no longer resolve, or traces the reference FA rejects,
// abort the replay — they mean the WAL does not belong to this snapshot.
func replayWAL(ctx context.Context, sess *cable.Session, actions []walAction) (int, error) {
	n := 0
	for _, a := range actions {
		switch a.typ {
		case walTypeLbl:
			i := sess.Set().ClassOfKey(a.key)
			if i < 0 {
				return n, fmt.Errorf("label record for unknown class %q", a.key)
			}
			if err := sess.LabelTrace(i, cable.Label(a.label)); err != nil {
				return n, err
			}
		case walTypeStream:
			// Stream state is restored separately (loadOne): the record
			// describes a checker, not a session action.
			continue
		case walTypeAdd:
			ts, err := trace.Read(strings.NewReader(a.text))
			if err != nil {
				return n, fmt.Errorf("add record: %w", err)
			}
			for _, cl := range ts.Classes() {
				for j := 0; j < cl.Count; j++ {
					t := cl.Rep
					t.ID = cl.IDs[j]
					if _, _, err := sess.AddTraceCtx(ctx, t); err != nil {
						return n, fmt.Errorf("add record: %w", err)
					}
				}
			}
		}
		n++
	}
	return n, nil
}

// snapshotSession persists a session's full snapshot and then re-appends
// one stream record per open stream: writeSnap truncates the WAL, which
// would otherwise lose the open frontiers. Callers hold e.mu (lock order
// entry → stream is the sanctioned nesting; see streamEntry).
func (s *Server) snapshotSession(e *entry) error {
	if err := s.persist.writeSnap(e); err != nil {
		return err
	}
	var recs [][]byte
	for _, se := range s.store.streamsOf(e.id) {
		se.mu.Lock()
		if !se.closed {
			recs = append(recs, walStreamRecord(se.id, se.spec, false, se.checker.State()))
		}
		se.mu.Unlock()
	}
	return s.persist.appendWAL(e, recs)
}

// SaveSnapshots writes a fresh snapshot for every live session — the
// graceful-drain counterpart of LoadSnapshots — closes its log, and
// returns how many it saved. Idle-evicted and deleted sessions have no
// files left to write. Open streams ride along as WAL stream records, so
// a restart resumes them mid-protocol.
func (s *Server) SaveSnapshots() (int, error) {
	if s.persist == nil {
		return 0, nil
	}
	saved := 0
	var firstErr error
	for _, e := range s.store.list() {
		e.mu.Lock()
		err := s.snapshotSession(e)
		if cerr := closeWAL(e); err == nil && cerr != nil {
			err = fmt.Errorf("server: wal %s: %w", e.id, cerr)
		}
		e.mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		saved++
	}
	return saved, firstErr
}
