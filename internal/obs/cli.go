package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// CLIConfig describes the observability switches the cmd/ mains share:
// -metrics (enable the registry, dump a text snapshot on exit),
// -cpuprofile, and -memprofile.
type CLIConfig struct {
	// Metrics enables the process-default registry and dumps a text
	// snapshot to stderr, keeping stdout clean for the tool's own output,
	// when the returned stop function runs.
	Metrics bool
	// CPUProfile, when non-empty, is the file to write a pprof CPU
	// profile to.
	CPUProfile string
	// MemProfile, when non-empty, is the file to write a pprof heap
	// profile to (captured at stop, after a GC).
	MemProfile string
}

// SetupCLI wires the shared observability flags and returns a stop
// function that must run before the process exits: it stops the CPU
// profile, writes the heap profile, dumps the metrics snapshot, and
// disables the registry. stop is idempotent, so it is safe to both defer
// it and call it explicitly before an os.Exit path.
func SetupCLI(cfg CLIConfig) (stop func(), err error) {
	var m *Metrics
	if cfg.Metrics {
		m = Enable()
	}
	var cpuFile *os.File
	if cfg.CPUProfile != "" {
		cpuFile, err = os.Create(cfg.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "obs: cpuprofile:", err)
			}
		}
		if cfg.MemProfile != "" {
			f, err := os.Create(cfg.MemProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "obs: memprofile:", err)
			} else {
				runtime.GC() // materialize up-to-date heap statistics
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "obs: memprofile:", err)
				}
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "obs: memprofile:", err)
				}
			}
		}
		if m != nil {
			if err := m.WriteText(os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "obs: snapshot:", err)
			}
			Disable()
		}
	}, nil
}
