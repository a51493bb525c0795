package exp

import (
	"context"
	"errors"
	"testing"

	"repro/internal/obs"
)

// cancelOnDone is a context that cancels itself the first time its Done
// channel is asked for. The sweep loops check Err; the lattice build inside
// an item asks for Done, so the first item cancels the sweep.
type cancelOnDone struct {
	context.Context
	cancel context.CancelFunc
}

func (c cancelOnDone) Done() <-chan struct{} {
	c.cancel()
	return c.Context.Done()
}

// TestSweepCancellation pins the sweeps' cancellation contract: each checks
// cfg.Context before every item and returns the first error. Items are
// counted as Prepare calls (the exp.prepare span).
func TestSweepCancellation(t *testing.T) {
	sweeps := []struct {
		name string
		run  func(Config) error
		// scaled sweeps size their items with cfg.Scale; AdvantageSweep
		// overrides it with its own sizes.
		scaled bool
	}{
		{"Table2", func(c Config) error { _, err := Table2(c); return err }, true},
		{"Table3", func(c Config) error { _, err := Table3(c); return err }, true},
		{"LatticeGrowth", func(c Config) error { _, err := LatticeGrowth(c); return err }, true},
		{"AdvantageSweep", func(c Config) error { _, err := AdvantageSweep("XFreeGC", c, []int{20, 40}); return err }, false},
	}
	run := func(cfg Config, sweep func(Config) error) (int64, error) {
		m := obs.Enable()
		defer obs.Disable()
		err := sweep(cfg)
		return m.Snapshot().Hists["exp.prepare"].Count, err
	}
	for _, s := range sweeps {
		// A pre-cancelled context stops the sweep before its first item.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cfg := DefaultConfig()
		cfg.Context = ctx
		cfg.Scale = func(string) int {
			t.Errorf("%s: Scale called under a cancelled context", s.name)
			return 30
		}
		if items, err := run(cfg, s.run); !errors.Is(err, context.Canceled) || items != 0 {
			t.Errorf("%s pre-cancelled: err = %v after %d items, want context.Canceled after 0", s.name, err, items)
		}

		// Cancelling during the first item stops the sweep after it: from
		// the first Scale call, or for AdvantageSweep from the first build.
		ctx, cancel = context.WithCancel(context.Background())
		cfg = DefaultConfig()
		cfg.Context = ctx
		scales := 0
		cfg.Scale = func(string) int {
			scales++
			cancel()
			return 30
		}
		if !s.scaled {
			cfg.Context = cancelOnDone{ctx, cancel}
		}
		items, err := run(cfg, s.run)
		cancel()
		if !errors.Is(err, context.Canceled) || items != 1 {
			t.Errorf("%s cancelled in item 0: err = %v after %d items, want context.Canceled after 1", s.name, err, items)
		}
		if s.scaled && scales != 1 {
			t.Errorf("%s: Scale called %d times, want 1", s.name, scales)
		}
	}
}
