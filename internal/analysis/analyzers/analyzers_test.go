package analyzers_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/analyzers"
)

func TestObsSpanGolden(t *testing.T) {
	analysistest.Run(t, "testdata/obsspan", analyzers.ObsSpan)
}

func TestCtxPropagateGolden(t *testing.T) {
	analysistest.Run(t, "testdata/ctxpropagate", analyzers.CtxPropagate)
}

func TestErrWrapLineGolden(t *testing.T) {
	analysistest.Run(t, "testdata/errwrapline", analyzers.ErrWrapLine)
}

func TestLockHeldGolden(t *testing.T) {
	analysistest.Run(t, "testdata/lockheld", analyzers.LockHeld)
}

func TestPoolArenaGolden(t *testing.T) {
	analysistest.Run(t, "testdata/poolarena", analyzers.PoolArena)
}

func TestErrEnvelopeGolden(t *testing.T) {
	analysistest.Run(t, "testdata/errenvelope", analyzers.ErrEnvelope)
}

func TestAllIsStable(t *testing.T) {
	want := []string{"obsspan", "ctxpropagate", "errwrapline", "lockheld", "poolarena", "errenvelope"}
	all := analyzers.All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s is missing Doc or Run", a.Name)
		}
	}
	_ = analysis.Diagnostic{}
}
