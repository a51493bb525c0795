package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// provenance identifies the code and machine a result came from.
type provenance struct {
	GitSHA     string `json:"git_sha"`
	Source     string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

// noise is the machine's share of a timed phase: what the process got and
// what the hypervisor took. Steal coincides with slow runs, so it tells
// machine noise from a regression.
type noise struct {
	CPUSeconds    float64 `json:"process_cpu_s"`
	CPUMsPerOp    float64 `json:"process_cpu_ms_per_op"`
	GCCycles      uint32  `json:"gc_cycles"`
	GCCyclesPerOp float64 `json:"gc_cycles_per_op"`
	StealSeconds  float64 `json:"steal_s"`
	WallSeconds   float64 `json:"wall_s"`
}

func readProvenance() provenance {
	return provenance{
		GitSHA:     gitSHA("."),
		Source:     sourceDigest("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// gitSHA reads HEAD from the repository's .git directory without running
// git; a checkout that is not a repository reports "none".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, r, ok := strings.Cut(line, " "); ok && r == name {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes the program's Go sources and go.mod, so results from
// checkouts that are not git repositories still name the code they ran.
func sourceDigest(root string) string {
	h := sha256.New()
	files := []string{filepath.Join(root, "go.mod")}
	_ = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// noiseProbe brackets a timed phase.
type noiseProbe struct {
	start time.Time
	cpu   time.Duration
	gc    uint32
	steal float64
}

func startNoise() noiseProbe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return noiseProbe{start: time.Now(), cpu: processCPU(), gc: ms.NumGC, steal: stealSeconds()}
}

func (p noiseProbe) stop(ops int) noise {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := noise{
		CPUSeconds:   (processCPU() - p.cpu).Seconds(),
		GCCycles:     ms.NumGC - p.gc,
		StealSeconds: stealSeconds() - p.steal,
		WallSeconds:  time.Since(p.start).Seconds(),
	}
	if ops > 0 {
		n.CPUMsPerOp = n.CPUSeconds * 1000 / float64(ops)
		n.GCCyclesPerOp = float64(n.GCCycles) / float64(ops)
	}
	return n
}

// processCPU is the user plus system time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds is the machine-wide steal time from /proc/stat, in seconds
// (the kernel counts it in USER_HZ ticks of 1/100 s); 0 where unavailable.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}
