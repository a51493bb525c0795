// Session persistence: crash-safe snapshots plus a write-ahead log of
// labeling actions, so a killed or restarted cabled process restores its
// live sessions with every label intact.
//
// Each session owns two files under the snapshot directory:
//
//	<id>.snap — full session state, written atomically (temp + rename):
//
//	    "CSNP" | ver u8 |
//	    str sessionID | str traces | str refFA |
//	    u32 numLabels | numLabels × str label |
//	    u64 latticeLen | lattice bytes (concept.WriteSnapshot) |
//	    u32 crc32(IEEE, everything before the trailer)
//
//	<id>.wal — actions since the snapshot, append-only:
//
//	    "CWAL" | ver u8 | record*
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
// str is u32 length + bytes, little-endian throughout. The snapshot is
// rewritten — and the WAL truncated — whenever the full labeling changes
// shape outside the WAL's vocabulary (focus merges, graceful drain); WAL
// records carry trace-class *keys*, not indices, so replay stays correct
// even though adds change the class numbering. Replay stops at the first
// record whose CRC or structure fails: a torn tail loses that record
// only, never the session. Open focus sub-sessions are deliberately not
// persisted — a crash mid-focus restores the parent as of the last
// snapshot plus WAL; the focus's unmerged labels are lost, matching the
// paper's model of focus sessions as scratch workspaces.
//
// Stream records externalize an open online-verification stream's
// checker (internal/stream.State): every ingest batch appends one, the
// latest record per stream ID wins on replay, and closed=1 is a
// tombstone. Because writing a snapshot truncates the WAL, the server
// re-appends one stream record per open stream right after every
// snapshot, so open frontiers survive snapshot-then-crash.
package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
)

const (
	snapMagic     = "CSNP"
	walMagic      = "CWAL"
	persistVer    = 1
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

// --- little-endian primitives over an in-memory buffer ---

func putU32(b *bytes.Buffer, v uint32) {
	var x [4]byte
	binary.LittleEndian.PutUint32(x[:], v)
	b.Write(x[:])
}

func putU64(b *bytes.Buffer, v uint64) {
	var x [8]byte
	binary.LittleEndian.PutUint64(x[:], v)
	b.Write(x[:])
}

func putStr(b *bytes.Buffer, s string) {
	putU32(b, uint32(len(s)))
	b.WriteString(s)
}

// byteCursor reads the primitives back, failing on truncation instead of
// panicking — snapshot files are trusted less than the process that wrote
// them (partial writes, disk corruption).
type byteCursor struct {
	data []byte
	off  int
}

func (c *byteCursor) take(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.data) {
		return nil, errors.New("truncated")
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *byteCursor) u8() (byte, error) {
	b, err := c.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *byteCursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *byteCursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *byteCursor) str() (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	if n > maxPersistStr {
		return "", fmt.Errorf("string of %d bytes exceeds limit", n)
	}
	b, err := c.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// --- snapshot files ---

// snapData is a parsed .snap file, still in wire form: the caller turns
// the text payloads back into a live session.
type snapData struct {
	id      string
	traces  string
	ref     string
	labels  []string
	lattice []byte
}

// writeSnap atomically persists the session's full state and truncates
// its WAL (the snapshot now subsumes every logged action). Callers hold
// the session's entry lock.
func (p *persister) writeSnap(id string, sess *cable.Session) error {
	var body bytes.Buffer
	body.WriteString(snapMagic)
	body.WriteByte(persistVer)
	putStr(&body, id)
	var traces, ref strings.Builder
	if err := trace.Write(&traces, sess.Set()); err != nil {
		return fmt.Errorf("server: snapshot %s: traces: %w", id, err)
	}
	if err := fa.Write(&ref, sess.Ref()); err != nil {
		return fmt.Errorf("server: snapshot %s: ref fa: %w", id, err)
	}
	putStr(&body, traces.String())
	putStr(&body, ref.String())
	labels := sess.Labels()
	putU32(&body, uint32(len(labels)))
	for _, l := range labels {
		putStr(&body, string(l))
	}
	var lat bytes.Buffer
	if err := concept.WriteSnapshot(&lat, sess.Lattice()); err != nil {
		return fmt.Errorf("server: snapshot %s: lattice: %w", id, err)
	}
	putU64(&body, uint64(lat.Len()))
	body.Write(lat.Bytes())
	putU32(&body, crc32.ChecksumIEEE(body.Bytes()))

	tmp := p.snapPath(id) + ".tmp"
	if err := os.WriteFile(tmp, body.Bytes(), 0o644); err != nil {
		return fmt.Errorf("server: snapshot %s: %w", id, err)
	}
	if err := os.Rename(tmp, p.snapPath(id)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: snapshot %s: %w", id, err)
	}
	// The snapshot includes everything; the log starts over.
	if err := os.Remove(p.walPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("server: snapshot %s: truncating wal: %w", id, err)
	}
	p.metrics.Counter("server.snapshot.save").Inc()
	return nil
}

// parseSnap validates and decodes a .snap file.
func parseSnap(data []byte) (snapData, error) {
	var sd snapData
	if len(data) < len(snapMagic)+1+4 {
		return sd, errors.New("server: snapshot: truncated")
	}
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(data[:len(data)-4]) != stored {
		return sd, errors.New("server: snapshot: checksum mismatch")
	}
	c := &byteCursor{data: data[:len(data)-4]}
	magic, err := c.take(len(snapMagic))
	if err != nil || string(magic) != snapMagic {
		return sd, errors.New("server: snapshot: bad magic")
	}
	ver, err := c.u8()
	if err != nil || ver != persistVer {
		return sd, fmt.Errorf("server: snapshot: unsupported version %d", ver)
	}
	if sd.id, err = c.str(); err != nil {
		return sd, fmt.Errorf("server: snapshot: id: %w", err)
	}
	if sd.traces, err = c.str(); err != nil {
		return sd, fmt.Errorf("server: snapshot: traces: %w", err)
	}
	if sd.ref, err = c.str(); err != nil {
		return sd, fmt.Errorf("server: snapshot: ref fa: %w", err)
	}
	n, err := c.u32()
	if err != nil {
		return sd, fmt.Errorf("server: snapshot: labels: %w", err)
	}
	sd.labels = make([]string, 0, min(int(n), 4096))
	for i := 0; i < int(n); i++ {
		l, err := c.str()
		if err != nil {
			return sd, fmt.Errorf("server: snapshot: label %d: %w", i, err)
		}
		sd.labels = append(sd.labels, l)
	}
	latLen, err := c.u64()
	if err != nil {
		return sd, fmt.Errorf("server: snapshot: lattice: %w", err)
	}
	lat, err := c.take(int(latLen))
	if err != nil {
		return sd, fmt.Errorf("server: snapshot: lattice: %w", err)
	}
	sd.lattice = lat
	if c.off != len(c.data) {
		return sd, fmt.Errorf("server: snapshot: %d trailing bytes", len(c.data)-c.off)
	}
	return sd, nil
}

// --- write-ahead log ---

// walRecord frames one action with its type, length, and CRC.
func walRecord(typ byte, payload []byte) []byte {
	var b bytes.Buffer
	b.WriteByte(typ)
	putU32(&b, uint32(len(payload)))
	b.Write(payload)
	putU32(&b, crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// walLabelRecord logs "class <key> now carries <label>".
func walLabelRecord(key, label string) []byte {
	var p bytes.Buffer
	putStr(&p, key)
	putStr(&p, label)
	return walRecord(walTypeLbl, p.Bytes())
}

// walAddRecord logs one ingested trace in the trace text format.
func walAddRecord(t trace.Trace) ([]byte, error) {
	var text strings.Builder
	if err := trace.WriteTrace(&text, t); err != nil {
		return nil, err
	}
	var p bytes.Buffer
	putStr(&p, text.String())
	return walRecord(walTypeAdd, p.Bytes()), nil
}

// walStreamRecord externalizes one open stream's checker state (or its
// tombstone when closed).
func walStreamRecord(streamID, spec string, closed bool, st stream.State) []byte {
	var p bytes.Buffer
	putStr(&p, streamID)
	putStr(&p, spec)
	if closed {
		p.WriteByte(1)
	} else {
		p.WriteByte(0)
	}
	putU32(&p, uint32(st.Window))
	putU64(&p, st.Events)
	putU64(&p, st.SinceReset)
	putU64(&p, st.Truncations)
	putU32(&p, uint32(st.Violations))
	if st.Truncated {
		p.WriteByte(1)
	} else {
		p.WriteByte(0)
	}
	putU32(&p, uint32(len(st.Frontier)))
	for _, q := range st.Frontier {
		putU32(&p, uint32(q))
	}
	putU32(&p, uint32(len(st.Ring)))
	for _, e := range st.Ring {
		putStr(&p, e.String())
	}
	return walRecord(walTypeStream, p.Bytes())
}

// parseStreamPayload decodes a type-3 payload back into checker state.
func parseStreamPayload(pc *byteCursor) (streamID, spec string, closed bool, st stream.State, err error) {
	fail := func(e error) (string, string, bool, stream.State, error) {
		return "", "", false, stream.State{}, e
	}
	if streamID, err = pc.str(); err != nil {
		return fail(err)
	}
	if spec, err = pc.str(); err != nil {
		return fail(err)
	}
	cb, err := pc.u8()
	if err != nil {
		return fail(err)
	}
	closed = cb != 0
	w, err := pc.u32()
	if err != nil {
		return fail(err)
	}
	st.Window = int(w)
	if st.Events, err = pc.u64(); err != nil {
		return fail(err)
	}
	if st.SinceReset, err = pc.u64(); err != nil {
		return fail(err)
	}
	if st.Truncations, err = pc.u64(); err != nil {
		return fail(err)
	}
	v, err := pc.u32()
	if err != nil {
		return fail(err)
	}
	st.Violations = int(v)
	tb, err := pc.u8()
	if err != nil {
		return fail(err)
	}
	st.Truncated = tb != 0
	nf, err := pc.u32()
	if err != nil || nf > uint32(stream.MaxWindow)*1024 {
		return fail(errors.New("bad frontier count"))
	}
	st.Frontier = make([]int, 0, min(int(nf), 4096))
	for i := 0; i < int(nf); i++ {
		q, err := pc.u32()
		if err != nil {
			return fail(err)
		}
		st.Frontier = append(st.Frontier, int(q))
	}
	nr, err := pc.u32()
	if err != nil || nr > uint32(stream.MaxWindow) {
		return fail(errors.New("bad ring count"))
	}
	st.Ring = make([]event.Event, 0, int(nr))
	for i := 0; i < int(nr); i++ {
		text, err := pc.str()
		if err != nil {
			return fail(err)
		}
		ev, err := event.Parse(text)
		if err != nil {
			return fail(err)
		}
		st.Ring = append(st.Ring, ev)
	}
	return streamID, spec, closed, st, nil
}

// appendWAL appends framed records to the session's log, creating it
// (with its header) on first use. Callers hold the session's entry lock,
// which serializes appends per session.
func (p *persister) appendWAL(id string, recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	f, err := os.OpenFile(p.walPath(id), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("server: wal %s: %w", id, err)
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		if _, err := f.Write(append([]byte(walMagic), persistVer)); err != nil {
			return fmt.Errorf("server: wal %s: header: %w", id, err)
		}
	}
	for _, rec := range recs {
		if _, err := f.Write(rec); err != nil {
			return fmt.Errorf("server: wal %s: %w", id, err)
		}
	}
	return nil
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
// or structure check; a torn tail yields the valid prefix, never an
// error — the session restores to the last durable action.
func parseWAL(data []byte) []walAction {
	c := &byteCursor{data: data}
	magic, err := c.take(len(walMagic))
	if err != nil || string(magic) != walMagic {
		return nil
	}
	if ver, err := c.u8(); err != nil || ver != persistVer {
		return nil
	}
	var out []walAction
	for c.off < len(c.data) {
		start := c.off
		typ, err := c.u8()
		if err != nil {
			break
		}
		n, err := c.u32()
		if err != nil || n > maxPersistStr {
			break
		}
		payload, err := c.take(int(n))
		if err != nil {
			break
		}
		stored, err := c.u32()
		if err != nil || crc32.ChecksumIEEE(c.data[start:start+5+int(n)]) != stored {
			break
		}
		pc := &byteCursor{data: payload}
		switch typ {
		case walTypeLbl:
			key, err1 := pc.str()
			label, err2 := pc.str()
			if err1 != nil || err2 != nil || pc.off != len(payload) {
				return out
			}
			out = append(out, walAction{typ: typ, key: key, label: label})
		case walTypeAdd:
			text, err := pc.str()
			if err != nil || pc.off != len(payload) {
				return out
			}
			out = append(out, walAction{typ: typ, text: text})
		case walTypeStream:
			sid, spec, closed, sst, err := parseStreamPayload(pc)
			if err != nil || pc.off != len(payload) {
				return out
			}
			out = append(out, walAction{typ: typ, streamID: sid, streamSpec: spec, streamClosed: closed, streamState: sst})
		default:
			// Unknown record type: written by a newer version; stop
			// rather than misinterpret what follows.
			return out
		}
	}
	return out
}

// removeFiles deletes a session's snapshot and WAL; called after the
// session leaves the store (delete or idle eviction).
func (p *persister) removeFiles(id string) {
	_ = os.Remove(p.snapPath(id))
	_ = os.Remove(p.walPath(id))
}

// state reports a session's durability form for introspection: "wal"
// (snapshot plus a write-ahead tail), "snapshot" (snapshot only), or
// "none".
func (p *persister) state(id string) string {
	if _, err := os.Stat(p.walPath(id)); err == nil {
		return "wal"
	}
	if _, err := os.Stat(p.snapPath(id)); err == nil {
		return "snapshot"
	}
	return "none"
}

// --- server lifecycle hooks ---

// LoadSnapshots restores every persisted session from the snapshot
// directory: parse the .snap, rebuild the cable session around the
// restored lattice (no concept.Build — that is the point), reapply the
// snapshotted labels, then replay the WAL. It returns how many sessions
// came back. A corrupt snapshot is skipped (counted in
// server.snapshot.load_errors) so one bad file cannot hold the whole
// service down; a torn WAL tail replays its valid prefix.
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
	lattice, err := concept.ReadSnapshot(bytes.NewReader(sd.lattice))
	if err != nil {
		return fmt.Errorf("server: snapshot %s: lattice: %w", id, err)
	}
	if len(sd.labels) != set.NumClasses() {
		return fmt.Errorf("server: snapshot %s: %d labels for %d classes", id, len(sd.labels), set.NumClasses())
	}
	sess, err := cable.NewSession(set, ref,
		cable.WithContext(ctx),
		cable.WithObs(s.metrics),
		cable.WithLattice(lattice))
	if err != nil {
		return fmt.Errorf("server: snapshot %s: %w", id, err)
	}
	for i, l := range sd.labels {
		if l == "" {
			continue
		}
		if err := sess.LabelTrace(i, cable.Label(l)); err != nil {
			return fmt.Errorf("server: snapshot %s: %w", id, err)
		}
	}
	var actions []walAction
	if wdata, err := os.ReadFile(s.persist.walPath(id)); err == nil {
		actions = parseWAL(wdata)
		replayed, err := replayWAL(ctx, sess, actions)
		if err != nil {
			return fmt.Errorf("server: snapshot %s: wal: %w", id, err)
		}
		s.metrics.Counter("server.snapshot.replay").Add(int64(replayed))
	}
	if err := s.store.restore(id, sess); err != nil {
		return err
	}
	// Re-open the session's streams from their latest stream records
	// (closed records are tombstones). A record that no longer matches
	// the reference FA — e.g. a frontier state out of range — loses that
	// stream only, not the session.
	latest := map[string]walAction{}
	for _, a := range actions {
		if a.typ == walTypeStream {
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
	if err := s.persist.writeSnap(e.id, e.session); err != nil {
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
	return s.persist.appendWAL(e.id, recs)
}

// SaveSnapshots writes a fresh snapshot for every live session — the
// graceful-drain counterpart of LoadSnapshots — and returns how many it
// saved. Idle-evicted and deleted sessions have no files left to write.
// Open streams ride along as WAL stream records, so a restart resumes
// them mid-protocol.
func (s *Server) SaveSnapshots() (int, error) {
	if s.persist == nil {
		return 0, nil
	}
	saved := 0
	var firstErr error
	for _, e := range s.store.list() {
		e.mu.Lock()
		err := s.snapshotSession(e)
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
