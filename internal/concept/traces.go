package concept

import (
	"context"
	"fmt"

	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TraceContext builds the formal context of Section 3.2 from a set of traces
// and a reference FA: objects are the traces, attributes are the FA's
// transitions, and (o, a) ∈ R iff transition a lies on some accepting run of
// the FA on o.
//
// Every trace must be accepted by the reference FA — the paper requires a
// reference FA that "recognizes (at least)" the traces being clustered. A
// rejected trace yields an error naming it, so callers can pick a coarser
// reference FA (fa.FromTraces always works).
//
// The reference FA is compiled once (fa.Sim) and every trace is simulated
// once, straight into its context row. Callers pass class representatives
// (trace.Set.Representatives), so the relation costs one simulation per
// class of identical traces; a duplicate trace is simulated again and gets
// an equal row.
func TraceContext(traces []trace.Trace, ref *fa.FA) (*Context, error) {
	return traceContext(context.Background(), traces, ref)
}

// TraceContextCtx is TraceContext with cancellation. The workers argument
// is ignored: context assembly is serial.
//
// Deprecated: use TraceContext, or BuildFromTracesCtx for a cancellable
// build.
func TraceContextCtx(ctx context.Context, traces []trace.Trace, ref *fa.FA, workers int) (*Context, error) {
	return traceContext(ctx, traces, ref)
}

// traceContext is TraceContext with cancellation: ctx is checked before
// each trace is simulated, and once it is done no new simulation starts
// and ctx.Err() is returned.
func traceContext(ctx context.Context, traces []trace.Trace, ref *fa.FA) (*Context, error) {
	sp := obs.StartSpan("concept.context")
	defer sp.End()
	obs.Count("concept.context.traces", int64(len(traces)))
	// Strided cancellation checks keep the naming loops responsive on very
	// large inputs without paying a select per name.
	done := ctx.Done()
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	objNames := make([]string, len(traces))
	for i, t := range traces {
		if i&1023 == 0 && cancelled() {
			return nil, ctx.Err()
		}
		name := t.ID
		if name == "" {
			name = fmt.Sprintf("t%d", i)
		}
		objNames[i] = name
	}
	attrNames := make([]string, ref.NumTransitions())
	for i, tr := range ref.Transitions() {
		if i&1023 == 0 && cancelled() {
			return nil, ctx.Err()
		}
		attrNames[i] = tr.String()
	}
	fc := newContext(objNames, attrNames)
	sim := ref.Sim()
	for o, t := range traces {
		if cancelled() {
			return nil, ctx.Err()
		}
		if !sim.ExecutedInto(fc.rows[o], t) {
			return nil, fmt.Errorf("concept: reference FA %q rejects trace %q (%s)", ref.Name(), objNames[o], t.Key())
		}
		fc.relateRow(o)
	}
	return fc, nil
}

// BuildFromTraces is the one-call form of Step 1 of the paper's method:
// compute the context of traces × executed transitions and construct its
// concept lattice.
func BuildFromTraces(traces []trace.Trace, ref *fa.FA) (*Lattice, error) {
	return BuildFromTracesCtx(context.Background(), traces, ref)
}

// BuildFromTracesCtx is BuildFromTraces with cancellation, for callers
// serving remote requests: a done ctx aborts both the context computation
// and the lattice construction between work items.
func BuildFromTracesCtx(ctx context.Context, traces []trace.Trace, ref *fa.FA) (*Lattice, error) {
	fc, err := traceContext(ctx, traces, ref)
	if err != nil {
		return nil, err
	}
	return BuildCtx(ctx, fc)
}
