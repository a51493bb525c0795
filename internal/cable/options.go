package cable

import (
	"context"

	"repro/internal/concept"
	"repro/internal/learn"
	"repro/internal/obs"
)

// Option configures NewSession (and Session.Focus, whose sub-session
// inherits the parent's configuration unless overridden). The options
// replace the former post-hoc SetLearner mutator: a Session's
// configuration is fixed at construction, which is what makes sessions
// safe to share behind a per-session lock in a concurrent service.
type Option func(*config)

type config struct {
	ctx     context.Context
	learner learn.Learner
	metrics *obs.Metrics
	lattice *concept.Lattice
}

func buildConfig(opts []Option) config {
	cfg := config{
		ctx:     context.Background(),
		learner: learn.DefaultLearner,
		metrics: obs.Default(),
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithContext bounds the session construction: the lattice build checks
// ctx between work items, so a timed-out or disconnected remote request
// aborts promptly with ctx.Err() instead of completing a build nobody will
// read. The context governs construction only; it is not retained by the
// session.
func WithContext(ctx context.Context) Option {
	return func(c *config) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

// WithLearner sets the FA learner used by Show FA summaries; the default
// is learn.DefaultLearner.
func WithLearner(l learn.Learner) Option {
	return func(c *config) { c.learner = l }
}

// WithObs directs the session's instrumentation (trace-class and concept
// gauges, build spans) to the given registry instead of the process
// default. A nil registry disables instrumentation for this session.
func WithObs(m *obs.Metrics) Option {
	return func(c *config) { c.metrics = m }
}

// WithLattice supplies a pre-built lattice instead of building one, so a
// cache of lattices keyed by workload can skip the expensive construction.
// The lattice must have been built from exactly this trace set's class
// representatives (same classes, same order) and the same reference FA;
// NewSession verifies the object count and rejects a mismatched lattice.
// A lattice shared this way must be treated as copy-on-write: before the
// first mutating call (Session.AddTraceCtx), the owner detaches its private
// copy with Session.DetachLattice, so the cache keeps serving the pristine
// lattice to later sessions of the same corpus.
func WithLattice(l *concept.Lattice) Option {
	return func(c *config) { c.lattice = l }
}
