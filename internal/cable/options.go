package cable

import (
	"context"

	"repro/internal/concept"
	"repro/internal/obs"
)

// Option configures NewSession (and Session.Focus, whose sub-session
// inherits the parent's configuration unless overridden). A Session's
// configuration is fixed at construction, which is what makes sessions
// safe to share behind a per-session lock in a concurrent service.
type Option func(*config)

type config struct {
	ctx     context.Context
	metrics *obs.Metrics
	lattice *concept.Lattice
}

func buildConfig(opts []Option) config {
	cfg := config{
		ctx:     context.Background(),
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

// WithObs directs the session's instrumentation (trace-class and concept
// gauges, build spans) to the given registry instead of the process
// default. A nil registry disables instrumentation for this session.
func WithObs(m *obs.Metrics) Option {
	return func(c *config) { c.metrics = m }
}

// WithLattice supplies a pre-built lattice instead of building one. The
// lattice must have been built from exactly this trace set's class
// representatives (same classes, same order) and the same reference FA;
// NewSession verifies the object count and rejects a mismatched lattice.
// The session adopts the lattice, and Session.AddTraceCtx mutates it in
// place: a caller that still uses the lattice elsewhere calls
// Session.DetachLattice before the first add. cabled does not use it,
// since each of its sessions builds its own lattice; perfbench's traced
// replay does.
func WithLattice(l *concept.Lattice) Option {
	return func(c *config) { c.lattice = l }
}
