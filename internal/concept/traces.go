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
// The reference FA is compiled once (fa.Sim) and the batch simulation
// dedups to one representative per identical-event trace class: duplicate
// traces share the class representative's executed-transition set, so the
// relation costs one simulation per class, not per trace.
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

// traceContext is TraceContext with cancellation: it is checked between
// trace classes, and once ctx is done no new simulation starts and
// ctx.Err() is returned.
func traceContext(ctx context.Context, traces []trace.Trace, ref *fa.FA) (*Context, error) {
	sp := obs.StartSpan("concept.context")
	defer sp.End()
	obs.Count("concept.context.traces", int64(len(traces)))
	// Strided cancellation checks keep the naming and relation loops
	// responsive on very large inputs without paying a select per item.
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
	fc := NewContext(objNames, attrNames)
	executed, accepted, err := ref.Sim().ExecutedAllCtx(ctx, traces)
	if err != nil {
		return nil, err
	}
	for o := range traces {
		if o&1023 == 0 && cancelled() {
			return nil, ctx.Err()
		}
		if !accepted[o] {
			return nil, fmt.Errorf("concept: reference FA %q rejects trace %q (%s)", ref.Name(), objNames[o], traces[o].Key())
		}
		executed[o].Range(func(a int) bool {
			fc.Relate(o, a)
			return true
		})
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
