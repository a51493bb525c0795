package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/server"
	"repro/internal/server/apiv1"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// Stream sizing: streamCount streams on one session, each replaying its
// own script of streamInstances protocol instances in streamBatch-event
// NDJSON batches, round-robin over the streams.
const (
	streamCount            = 64
	streamInstances        = 100
	streamBatch            = 32
	streamBatchesPerSecond = 4800
)

// stdioSpec is the strict stdio protocol the streams check: popen opens,
// fread/fwrite use, pclose closes, and the accept state is the start, so
// instances run back to back.
const stdioSpec = "fa stdio\n" +
	"states 2\n" +
	"start 0\n" +
	"accept 0\n" +
	"edge 0 1 X = popen()\n" +
	"edge 1 1 fread(X)\n" +
	"edge 1 1 fwrite(X)\n" +
	"edge 1 0 pclose(X)\n" +
	"end\n"

// streamModel is the stdio workload with about 1% bad instances: a
// mismatched fclose (caught at the offending event) and a leak (caught
// when the next instance begins).
func streamModel() xtrace.Model {
	return xtrace.Model{Scenarios: []xtrace.Scenario{
		{Name: "pipe", Good: true, Weight: 198, Events: []xtrace.Event{
			xtrace.Ev("X = popen()"), xtrace.Rep("fread(X)", 0, 3), xtrace.Rep("fwrite(X)", 0, 2), xtrace.Ev("pclose(X)"),
		}},
		{Name: "pipe-fclose", Good: false, Kind: xtrace.Misuse, Weight: 1, Events: []xtrace.Event{
			xtrace.Ev("X = popen()"), xtrace.Rep("fread(X)", 0, 1), xtrace.Ev("fclose(X)"),
		}},
		{Name: "pipe-leak", Good: false, Kind: xtrace.Leak, Weight: 1, Events: []xtrace.Event{
			xtrace.Ev("X = popen()"), xtrace.Rep("fread(X)", 1, 2),
		}},
	}}
}

// streamSession is the session the streams feed: a small stdio corpus
// under the permissive alphabet FA, so every violation window is a valid
// lattice object.
func streamSession() (apiv1.CreateSessionRequest, error) {
	set := trace.NewSet(
		trace.ParseEvents("s0", "X = popen()", "pclose(X)"),
		trace.ParseEvents("s1", "X = popen()", "fread(X)", "pclose(X)"),
		trace.ParseEvents("s2", "X = popen()", "fwrite(X)", "pclose(X)"),
		trace.ParseEvents("s3", "X = popen()", "fread(X)", "fclose(X)"),
	)
	var traces, ref strings.Builder
	if err := trace.Write(&traces, set); err != nil {
		return apiv1.CreateSessionRequest{}, err
	}
	if err := fa.Write(&ref, fa.FromTraces(set.Alphabet())); err != nil {
		return apiv1.CreateSessionRequest{}, err
	}
	return apiv1.CreateSessionRequest{Traces: traces.String(), RefFA: ref.String()}, nil
}

// streamWork is the online-verification pump: a fixed script per stream,
// replayed round-robin, with persistence on so every batch appends a WAL
// record.
type streamWork struct {
	env
	create []byte
	bodies [][][]byte // stream → batch bodies of one script loop
	bad    []int      // stream → bad instances in its script
	n      int

	snapDir  string
	c        *client
	sh       *shadow
	sid      string
	ids      []string
	checkers []*stream.Checker // traced runs: shadow checker per stream
	walBase  int64             // WAL size when the timed phase starts
}

func newStream(e env) (workload, error) {
	req, err := streamSession()
	if err != nil {
		return nil, err
	}
	w := &streamWork{env: e, create: mustJSON(req), n: e.seconds * streamBatchesPerSecond}
	instances := streamInstances
	if e.smoke {
		w.n, instances = 2*streamCount, 10
	}
	w.n -= w.n % streamCount
	scripts, _ := xtrace.Generator{Model: streamModel(), Seed: e.seed}.Streams(streamCount, instances)
	for _, s := range scripts {
		w.bodies = append(w.bodies, batches(padScript(s.Events)))
		w.bad = append(w.bad, s.Bad)
	}
	return w, nil
}

// padScript appends one good instance so the script fills whole batches;
// a loop of the script then starts and ends at the accept state.
func padScript(evs []event.Event) []event.Event {
	gap := streamBatch - len(evs)%streamBatch
	if gap < 2 {
		gap += streamBatch
	}
	evs = append(evs, event.MustParse("X = popen()"))
	for i := 0; i < gap-2; i++ {
		evs = append(evs, event.MustParse("fread(X)"))
	}
	return append(evs, event.MustParse("pclose(X)"))
}

func batches(evs []event.Event) [][]byte {
	var out [][]byte
	for i := 0; i < len(evs); i += streamBatch {
		var b bytes.Buffer
		for _, e := range evs[i : i+streamBatch] {
			b.Write(mustJSON(stream.Line{Event: e.String()}))
			b.WriteByte('\n')
		}
		out = append(out, b.Bytes())
	}
	return out
}

func (w *streamWork) setup() error {
	dir, err := os.MkdirTemp(w.dir, "snap-")
	if err != nil {
		return err
	}
	w.snapDir = dir
	w.c = newClient(server.New(cabledDefaults(dir, w.obs)).Handler(), w.env)
	w.sh = &shadow{tr: w.tr, cacheOn: true, persist: true}
	var created apiv1.CreateSessionResponse
	if _, err := w.c.callJSON("create_session", "POST", "/v1/sessions", w.create, 201, &created); err != nil {
		return err
	}
	w.sid = created.SessionID
	if err := w.sh.create(w.create, false); err != nil {
		return err
	}
	spec, err := fa.Read(strings.NewReader(stdioSpec))
	if err != nil {
		return err
	}
	open := mustJSON(apiv1.OpenStreamRequest{SessionID: w.sid, Spec: stdioSpec})
	w.ids, w.checkers = make([]string, streamCount), make([]*stream.Checker, streamCount)
	for i := range w.ids {
		var r apiv1.OpenStreamResponse
		if _, err := w.c.callJSON("open_stream", "POST", "/v1/streams", open, 201, &r); err != nil {
			return err
		}
		w.ids[i] = r.StreamID
		if w.tr != nil {
			w.checkers[i] = stream.New(spec.Sim(), stream.Config{})
		}
	}
	// Warm-up: one loop of every script, so the lattice already holds the
	// violation classes the loops repeat.
	for b := 0; b < w.loopLen(); b++ {
		if _, err := w.run(b); err != nil {
			return fmt.Errorf("warm-up batch %d: %w", b, err)
		}
	}
	w.walBase = fileSize(dir, w.sid+".wal")
	return nil
}

// loopLen is the op count of one loop over every stream's script.
func (w *streamWork) loopLen() int {
	longest := 0
	for _, b := range w.bodies {
		longest = max(longest, len(b))
	}
	return longest * streamCount
}

func (w *streamWork) ops() int { return w.n }

// do continues every stream's script where the warm-up left it.
func (w *streamWork) do(i int) (time.Duration, error) { return w.run(w.loopLen() + i) }

// run sends batch i/streamCount (modulo its script) of stream i%streamCount.
func (w *streamWork) run(i int) (time.Duration, error) {
	s := i % streamCount
	body := w.bodies[s][(i/streamCount)%len(w.bodies[s])]
	var r apiv1.StreamEventsResponse
	d, err := w.c.callJSON("stream_events", "POST", "/v1/streams/"+w.ids[s]+"/events", body, 200, &r)
	if err != nil {
		return d, err
	}
	if r.Accepted != streamBatch || len(r.Errors) != 0 {
		return d, fmt.Errorf("stream %d: accepted %d of %d, %d line errors", s, r.Accepted, streamBatch, len(r.Errors))
	}
	return d, w.sh.ingest(w.checkers[s], w.ids[s], body)
}

// finish closes every stream and checks its violations against the
// generator: a script with bad instances reports at least one, a clean
// script none.
func (w *streamWork) finish() (int, int, error) {
	if w.tr != nil {
		w.tr.counts["persist.wal_bytes"] += float64(fileSize(w.snapDir, w.sid+".wal") - w.walBase)
		w.tr.counts["persist.snap_bytes"] += float64(fileSize(w.snapDir, w.sid+".snap"))
		w.tr.counts["persist.sessions"]++
	}
	// Play each script to the end of its loop, where its checker is at
	// the accept state, so a clean script also finalizes clean.
	sent := w.loopLen()/streamCount + w.n/streamCount
	for s := range w.ids {
		for b := sent; b%len(w.bodies[s]) != 0; b++ {
			if _, err := w.run(b*streamCount + s); err != nil {
				return 0, 0, fmt.Errorf("finishing stream %d: %w", s, err)
			}
		}
	}
	failed := 0
	for i, id := range w.ids {
		var r apiv1.CloseStreamResponse
		if _, err := w.c.callJSON("close_stream", "DELETE", "/v1/streams/"+id, nil, 200, &r); err != nil {
			failed++
			continue
		}
		if (w.bad[i] > 0) != (r.ViolationTotal > 0) {
			failed++
		}
	}
	return len(w.ids), failed, nil
}

func (w *streamWork) close() {
	if w.snapDir != "" {
		os.RemoveAll(w.snapDir)
	}
	w.c, w.sh, w.sid, w.snapDir = nil, nil, "", ""
}
