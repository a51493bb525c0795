package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file implements the `go vet -vettool=` side of the framework: the
// go command hands the tool a JSON configuration file (conventionally
// vet.cfg) describing one package — its files, its import map, and the
// export-data file of every dependency — and expects diagnostics on
// stderr plus a facts file written to VetxOutput. The protocol is the
// same one x/tools' unitchecker speaks; reimplementing it here keeps the
// repository dependency-free while letting `go vet -vettool=cablevet`
// drive the whole build graph with caching.

// vetConfig mirrors the JSON the go command writes for vet tools.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// HandleVetFlags processes the go command's tool handshake flags. It
// returns true (after printing) when the process should exit: `-V=full`
// prints the tool's version fingerprint, `-flags` the (empty) JSON flag
// catalogue the go command uses to validate pass-through flags.
func HandleVetFlags(args []string) (handled bool) {
	for _, arg := range args {
		switch {
		case arg == "-V=full" || arg == "--V=full":
			name := filepath.Base(os.Args[0])
			fmt.Printf("%s version devel buildID=%s\n", name, selfHash())
			return true
		case arg == "-flags" || arg == "--flags":
			fmt.Println("[]")
			return true
		}
	}
	return false
}

// selfHash fingerprints the executable so the go command's vet cache is
// keyed by tool build.
func selfHash() string {
	f, err := os.Open(os.Args[0])
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%02x", h.Sum(nil))
}

// IsVetConfig reports whether arg names a vet protocol config file.
func IsVetConfig(arg string) bool { return strings.HasSuffix(arg, ".cfg") }

// RunUnitchecker analyzes the single package described by the config
// file and returns its diagnostics. The (empty) facts file is written to
// VetxOutput before returning, as the go command requires it to exist
// even for packages with findings.
func RunUnitchecker(cfgPath string, analyzers []*Analyzer) ([]Diagnostic, *token.FileSet, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, nil, fmt.Errorf("analysis: parsing %s: %v", cfgPath, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return nil, nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil, nil
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, cfg.PackageFile, cfg.ImportMap)
	pkg, err := checkPackage(fset, cfg.ImportPath, cfg.GoFiles, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("analysis: %s: %v", cfg.ImportPath, err)
	}
	diags, err := RunPackage(pkg, analyzers)
	return diags, fset, err
}
