package concept

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/fa"
	"repro/internal/trace"
)

// TestReadContextErrorsCarryLineNumbers pins the errwrapline dogfood fix:
// Burmeister parse failures name a 1-based line via scanio.LineError and
// wrap the cause so errors.Unwrap reaches it.
func TestReadContextErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"missing header", "not-burmeister\n", "concept: line 1: not a Burmeister context"},
		{"bad object count", "B\nnamed\nmany\n2\n", "bad object count"},
		{"bad cell", "B\nnamed\n1\n1\n\no\na\n?\n", "bad cell"},
		{"truncated", "B\nnamed\n", "truncated context"},
		// Fuzz-found: a declared object count near MaxInt64 overflowed
		// the needed-lines sum and panicked in make instead of erroring.
		{"huge counts", "B\n7000000000000000000\n00\n", "only 0 lines remain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadContext(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("ReadContext accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "concept: line ") {
				t.Fatalf("error %q does not name a line", err)
			}
			if errors.Unwrap(err) == nil {
				t.Fatalf("error %q is not wrapped (errors.Unwrap == nil)", err)
			}
		})
	}
}

// TestTraceContextCtxCancelled pins the ctxpropagate dogfood fix: a
// pre-cancelled context aborts context assembly (and hence
// BuildFromTracesCtx) before any simulation work, returning ctx.Err().
func TestTraceContextCtxCancelled(t *testing.T) {
	set := trace.NewSet(
		trace.ParseEvents("v0", "X = open()", "close(X)"),
		trace.ParseEvents("v1", "X = open()", "read(X)", "close(X)"),
	)
	ref := fa.FromTraces(set.Alphabet())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := traceContext(ctx, set.Representatives(), ref); !errors.Is(err, context.Canceled) {
		t.Fatalf("traceContext on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := BuildFromTracesCtx(ctx, set.Representatives(), ref); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildFromTracesCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
}
