package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/server/apiv1"
	"repro/internal/stream"
	"repro/internal/trace"
)

// shadow mirrors one cabled session inside the benchmark, so that in
// traced runs each request's work can be replayed through the layers'
// public functions under a replay span of the same op. It follows the
// server's copy-on-write rule: with the lattice cache on, a session's
// lattice is shared until its first incremental add.
type shadow struct {
	tr       *tracer
	cacheOn  bool                        // the server's lattice cache is enabled
	lattices map[string]*concept.Lattice // replayed cache by request body; nil keeps none
	persist  bool                        // the server writes a snapshot per create
	sess     *cable.Session
	shared   bool
}

// replay runs f under the op's replay span; a nil tracer skips it.
func (s *shadow) replay(f func() error) error {
	if s.tr == nil {
		return nil
	}
	var err error
	s.tr.do(replaySpan, func() { err = f() })
	return err
}

func (s *shadow) decode(body []byte, v any) error {
	var err error
	s.tr.do("apiv1.decode", func() { err = json.Unmarshal(body, v) })
	return err
}

func (s *shadow) readTraces(text string) (*trace.Set, error) {
	var set *trace.Set
	var err error
	s.tr.do("trace.read", func() { set, err = trace.Read(strings.NewReader(text)) })
	s.tr.count("trace.read_bytes", float64(len(text)))
	return set, err
}

// create replays POST /v1/sessions: decode, parse, build (unless the
// server answered from its cache), wrap in a session, snapshot.
func (s *shadow) create(body []byte, cacheHit bool) error {
	return s.replay(func() error {
		var req apiv1.CreateSessionRequest
		if err := s.decode(body, &req); err != nil {
			return err
		}
		set, err := s.readTraces(req.Traces)
		if err != nil {
			return err
		}
		var ref *fa.FA
		s.tr.do("fa.read", func() { ref, err = fa.Read(strings.NewReader(req.RefFA)) })
		if err != nil {
			return err
		}
		l := s.lattices[string(body)]
		if !cacheHit || l == nil {
			var cx *concept.Context
			s.tr.do("concept.context", func() {
				cx, err = concept.TraceContextCtx(context.Background(), set.Representatives(), ref, 0)
			})
			if err != nil {
				return err
			}
			s.tr.do("concept.build", func() { l, err = concept.BuildCtx(context.Background(), cx) })
			if err != nil {
				return err
			}
			if s.lattices != nil {
				s.lattices[string(body)] = l
			}
		}
		s.tr.do("cable.new_session", func() { s.sess, err = cable.NewSession(set, ref, cable.WithLattice(l)) })
		if err != nil {
			return err
		}
		s.shared = s.cacheOn
		s.tr.count("concept.lattices", 1)
		s.tr.count("concept.concepts", float64(l.Len()))
		s.tr.count("concept.attributes", float64(l.Context().NumAttributes()))
		if s.persist {
			var n countingWriter
			s.tr.do("concept.snapshot", func() { err = concept.WriteSnapshot(&n, l) })
			s.tr.count("concept.snapshot_bytes", float64(n))
			s.tr.count("concept.snapshots", 1)
		}
		return err
	})
}

// label replays POST /v1/sessions/{id}/label.
func (s *shadow) label(body []byte) error {
	return s.replay(func() error {
		var req apiv1.LabelRequest
		if err := s.decode(body, &req); err != nil {
			return err
		}
		var err error
		s.tr.do("cable.label", func() {
			if req.Trace != nil {
				err = s.sess.LabelTrace(*req.Trace, cable.Label(req.Label))
				return
			}
			_, err = s.sess.LabelTraces(*req.Concept, cable.SelectUnlabeled(), cable.Label(req.Label))
		})
		s.tr.count("cable.labels", 1)
		return err
	})
}

// addTraces replays POST /v1/sessions/{id}/traces: decode, parse,
// validate against the reference FA, detach a shared lattice, add.
func (s *shadow) addTraces(body []byte) error {
	return s.replay(func() error {
		var req apiv1.AddTracesRequest
		if err := s.decode(body, &req); err != nil {
			return err
		}
		in, err := s.readTraces(req.Traces)
		if err != nil {
			return err
		}
		ref := s.sess.Ref()
		s.tr.do("fa.sim", func() {
			for _, cl := range in.Classes() {
				if _, ok := ref.Executed(cl.Rep); !ok {
					err = fmt.Errorf("reference FA rejects trace %q", cl.Rep.ID)
					return
				}
			}
		})
		if err != nil {
			return err
		}
		var traces []trace.Trace
		for _, cl := range in.Classes() {
			for j := 0; j < cl.Count; j++ {
				t := cl.Rep
				t.ID = cl.IDs[j]
				traces = append(traces, t)
			}
		}
		return s.add(traces, true)
	})
}

// add appends traces to the shadow session as the server does; strict
// reports errors, otherwise rejected traces are skipped like rejected
// stream violation windows.
func (s *shadow) add(traces []trace.Trace, strict bool) error {
	if len(traces) == 0 {
		return nil
	}
	if s.shared {
		s.tr.do("concept.clone", s.sess.DetachLattice)
		s.shared = false
	}
	var err error
	s.tr.do("concept.add", func() {
		for _, t := range traces {
			_, isNew, aerr := s.sess.AddTraceCtx(context.Background(), t)
			if aerr != nil {
				if strict {
					err = aerr
					return
				}
				continue
			}
			s.tr.count("concept.adds", 1)
			if isNew {
				s.tr.count("concept.new_classes", 1)
			}
		}
	})
	return err
}

// inspection names a read-only session request.
type inspection int

const (
	inspectConcepts inspection = iota // GET .../concepts
	inspectConcept                    // GET .../concepts/{cid}
	inspectSession                    // GET /v1/sessions/{id}
	inspectLabels                     // GET .../labels
)

// inspect replays a read-only request's cable calls.
func (s *shadow) inspect(kind inspection, cid int) error {
	return s.replay(func() error {
		var err error
		s.tr.do("cable.inspect", func() {
			switch kind {
			case inspectConcepts:
				for _, id := range s.sess.Lattice().TopDownOrder() {
					if err = s.conceptSummary(id); err != nil {
						return
					}
				}
			case inspectConcept:
				if err = s.conceptSummary(cid); err == nil {
					_, err = s.sess.ShowTransitions(cid, cable.SelectAll())
				}
			case inspectSession:
				_ = s.sess.Labels()
				_ = s.sess.Done()
			case inspectLabels:
				reps := s.sess.Representatives()
				for i, l := range s.sess.Labels() {
					if l != cable.Unlabeled {
						_ = reps[i].Key()
					}
				}
			}
		})
		return err
	})
}

func (s *shadow) conceptSummary(id int) error {
	if _, err := s.sess.ConceptState(id); err != nil {
		return err
	}
	objs, err := s.sess.Select(id, cable.SelectAll())
	if err != nil {
		return err
	}
	for _, o := range objs {
		if _, err := s.sess.Multiplicity(o); err != nil {
			return err
		}
	}
	return nil
}

// ingest replays POST /v1/streams/{id}/events on the stream's shadow
// checker, then appends the violation windows to the shadow session.
func (s *shadow) ingest(chk *stream.Checker, streamID string, body []byte) error {
	return s.replay(func() error {
		var vs []stream.Violation
		var err error
		var accepted int
		s.tr.do("stream.ingest", func() {
			accepted, _, err = stream.Ingest(chk, bytes.NewReader(body), func(v stream.Violation) { vs = append(vs, v) })
		})
		s.tr.count("stream.events", float64(accepted))
		s.tr.count("stream.violations", float64(len(vs)))
		if err != nil {
			return err
		}
		traces := make([]trace.Trace, len(vs))
		for i, v := range vs {
			traces[i] = v.Trace
			traces[i].ID = fmt.Sprintf("%s@%d", streamID, v.Offset)
		}
		return s.add(traces, false)
	})
}

// countingWriter counts the bytes written to it.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// fileSize is a file's size in bytes, 0 when it does not exist.
func fileSize(dir, name string) int64 {
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		return 0
	}
	return fi.Size()
}
