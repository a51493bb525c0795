package main

import (
	"strings"
	"time"
)

// Span names with a fixed role in the accounting. Every traced op is one
// opSpan holding the program call (a server.handler.<endpoint> span, or
// rowSpan for the paper pipeline) followed by a replaySpan whose children
// re-run that call's work through each layer's public functions.
const (
	opSpan        = "op"
	replaySpan    = "replay"
	rowSpan       = "exp.row"
	handlerPrefix = "server.handler."
)

// span is one recorded interval; times are nanoseconds since the tracer
// started, and Parent is an index into the tracer's spans (-1 for roots).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory from the benchmark's own files, around
// its calls into the program. It is single-threaded like the client, and
// a nil tracer records nothing. Spans are kept only while an op is open,
// so set-up and warm-up work replays without being recorded.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	op     int
	active bool
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), op: -1, counts: map[string]float64{}}
}

// beginOp opens op i's root span.
func (t *tracer) beginOp(i int) int {
	if t == nil {
		return -1
	}
	t.op, t.active = i, true
	return t.begin(opSpan)
}

// endOp closes the root span opened by beginOp.
func (t *tracer) endOp(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.active = false
}

func (t *tracer) begin(name string) int {
	if t == nil || !t.active {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f under a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// count adds n to a per-layer work counter. Like spans, counts are kept
// only while an op is open.
func (t *tracer) count(name string, n float64) {
	if t == nil || !t.active {
		return
	}
	t.counts[name] += n
}

// accounting is the per-layer split of the traced ops.
type accounting struct {
	ops      int
	opNs     int64            // program-call time: handlers or exp rows
	replayNs int64            // replay spans, children included
	selfNs   map[string]int64 // self time of every span under a replay
	unattrNs int64            // replay time no layer span covers
	handler  map[string][2]int64
}

// residual is the program-call time the replay did not reproduce: the
// server's own work for HTTP ops (routing, JSON, store, persistence), the
// harness's own work for paper rows.
func (a accounting) residual() int64 { return a.opNs - a.replayNs }

func (t *tracer) account() accounting {
	a := accounting{selfNs: map[string]int64{}, handler: map[string][2]int64{}}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	under := make([]bool, len(t.spans)) // span lies inside a replay span
	for i, s := range t.spans {
		if s.Parent >= 0 && (under[s.Parent] || t.spans[s.Parent].Name == replaySpan) {
			under[i] = true
		}
		switch {
		case s.Name == opSpan:
			a.ops++
		case s.Name == replaySpan:
			a.replayNs += s.dur()
			a.unattrNs += s.dur() - child[i]
		case s.Name == rowSpan:
			a.opNs += s.dur()
		case strings.HasPrefix(s.Name, handlerPrefix):
			a.opNs += s.dur()
			h := a.handler[strings.TrimPrefix(s.Name, handlerPrefix)]
			a.handler[strings.TrimPrefix(s.Name, handlerPrefix)] = [2]int64{h[0] + s.dur(), h[1] + 1}
		}
		if under[i] {
			a.selfNs[s.Name] += s.dur() - child[i]
		}
	}
	return a
}
