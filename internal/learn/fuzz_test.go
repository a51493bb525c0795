package learn_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/learn"
	"repro/internal/trace"
)

// fuzzLabels are the fuzz target's four labels. "!x()" renders below the
// end marker "$" and the others above it, so ties in k-string probability
// sort across both.
var fuzzLabels = []event.Event{
	event.MustParse("a()"),
	event.MustParse("!x()"),
	event.MustParse("X = c(Y)"),
	event.MustParse("d(X)"),
}

// decodeLearnInput turns fuzz bytes into sk-strings parameters and a small
// trace multiset. Byte 0 picks K (1–4), byte 1 picks S (0 to 1.27 in
// steps of 0.005, and NaN at 255), and bit 0 of byte 2 the agreement. Each
// later byte either ends the current trace (bit 6), repeats an earlier
// trace (bit 7; the trace just finished repeats adjacently) or appends a
// label; traces hold at most 6 events, and the multiset at most 12 traces.
func decodeLearnInput(data []byte) (learn.Learner, []trace.Trace) {
	var l learn.Learner
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	l.K = 1 + int(at(0)%4)
	l.S = float64(at(1)) / 200
	if at(1) == 255 {
		l.S = math.NaN()
	}
	if at(2)&1 == 1 {
		l.Agreement = learn.Or
	}
	var traces []trace.Trace
	var cur []event.Event
	for _, b := range data[min(3, len(data)):] {
		if len(traces) == 12 {
			break
		}
		switch {
		case b&0x80 != 0:
			if len(traces) > 0 {
				traces = append(traces, traces[int(b&0x7f)%len(traces)])
			}
		case b&0x40 != 0 || len(cur) == 6:
			traces = append(traces, trace.Trace{Events: cur})
			cur = nil
		default:
			cur = append(cur, fuzzLabels[b%4])
		}
	}
	if len(cur) > 0 && len(traces) < 12 {
		traces = append(traces, trace.Trace{Events: cur})
	}
	return l, traces
}

// FuzzLearnMatchesOracle requires the sk-strings learner with the decoded
// parameters and k-tails with the same K to match their oracles: the same
// fa.Write bytes, TransCount and AcceptCount.
func FuzzLearnMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 100, 0, 0, 1, 0x40, 0x80, 0, 2, 3, 0x40, 0x81, 0x80})
	f.Add([]byte{0, 190, 1, 0, 0, 0, 0x40, 1, 1, 0x40, 0x80, 2, 0x40, 0x80})
	f.Add([]byte{3, 255, 6, 0, 1, 2, 3, 0x40, 3, 2, 1, 0x40, 0x80, 0x81, 0x40})
	f.Add([]byte{2, 60, 2, 0x40, 0, 0x40, 0, 0, 0x40, 0x82, 0x80, 1, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, traces := decodeLearnInput(data)
		in := learnInput{fmt.Sprintf("%d traces", len(traces)), traces}
		got, gotErr := l.Learn("x", in.traces)
		want, wantErr := oracleLearn(l, "x", in.traces)
		if d := sameResult(got, want, gotErr, wantErr); d != "" {
			t.Fatalf("Learner%+v on %v differs from the oracle: %s", l, traceKeys(traces), d)
		}
		kt := learn.KTails{K: l.K}
		got, gotErr = kt.Learn("x", in.traces)
		want, wantErr = oracleKTails(kt, "x", in.traces)
		if d := sameResult(got, want, gotErr, wantErr); d != "" {
			t.Fatalf("KTails{K: %d} on %v differs from the oracle: %s", l.K, traceKeys(traces), d)
		}
	})
}

func traceKeys(ts []trace.Trace) []string {
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = t.Key()
	}
	return keys
}
