package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	// ForTest names the package whose test binary this variant is
	// compiled for, as `go list -test` reports it, or "" for the plain
	// package.
	ForTest string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listed is the part of a `go list -json` record the loader reads.
// ImportPath names a test variant with its test binary in brackets, as
// in "repro/internal/fa [repro/internal/fa.test]".
type listed struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	ForTest    string
	Standard   bool
}

// goList runs `go list -deps -export -json` in dir and returns its
// records, each after its dependencies. The listing stays offline, uses
// the local toolchain and ignores any workspace file.
func goList(dir string, args ...string) ([]listed, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v in %s: %v\n%s", args, dir, err, stderr.Bytes())
	}
	var pkgs []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("analysis: go list %v in %s: %v", args, dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves canonical import paths to the compiler export
// data files go list reported for them.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// newInfo allocates a types.Info with every map analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// checkPackage parses files and type-checks them as one package.
func checkPackage(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Load type-checks every package of the module in each of dirs from
// source, in dependency order, and returns them per module. The first
// module is listed with its tests, so its packages come with the variants
// `go test` compiles: each package with its in-package test files
// ("p [p.test]"), each external test package ("p_test [p.test]"), and
// each package recompiled against another's test variant ("q [p.test]").
// A variant resolves its imports through its ImportMap, so it sees the
// variants it is compiled with. A later module's listing repeats the
// packages it needs from earlier ones; it shares their types instead of
// checking them again. Everything else, the standard library included,
// is imported from export data.
func Load(dirs ...string) ([][]*Package, error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	fromExports := exportImporter(fset, exports)
	checked := map[string]*types.Package{}
	mods := make([][]*Package, len(dirs))
	for i, dir := range dirs {
		args := []string{"./..."}
		if i == 0 {
			args = []string{"-test", "./..."}
		}
		list, err := goList(dir, args...)
		if err != nil {
			return nil, err
		}
		for _, lp := range list {
			if lp.Standard {
				exports[lp.ImportPath] = lp.Export
				continue
			}
			path, _, _ := strings.Cut(lp.ImportPath, " ")
			if _, done := checked[lp.ImportPath]; done || lp.ForTest == "" && strings.HasSuffix(path, ".test") {
				continue // a repeat of an earlier module's package, or a generated test main
			}
			names := lp.GoFiles // a "p [p.test]" variant lists its test files here too
			for j, name := range names {
				names[j] = filepath.Join(lp.Dir, name)
			}
			imp := importerFunc(func(imported string) (*types.Package, error) {
				if id, ok := lp.ImportMap[imported]; ok {
					imported = id
				}
				if p, ok := checked[imported]; ok {
					return p, nil
				}
				return fromExports.Import(imported)
			})
			pkg, err := checkPackage(fset, path, names, imp)
			if err != nil {
				return nil, fmt.Errorf("analysis: %s: %v", lp.ImportPath, err)
			}
			pkg.ForTest = lp.ForTest
			checked[lp.ImportPath] = pkg.Types
			mods[i] = append(mods[i], pkg)
		}
	}
	return mods, nil
}

// LoadDir loads the single package rooted at dir — typically an
// analysistest golden package under testdata, which `go list` patterns
// skip. The directory's files are parsed directly; their imports, listed
// from moduleDir, come from export data, so golden packages may import
// real repository packages and the standard library alike.
func LoadDir(dir, moduleDir string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	slices.Sort(matches)
	var imports []string
	for _, name := range matches {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err == nil && path != "unsafe" {
				imports = append(imports, path)
			}
		}
	}
	slices.Sort(imports)
	imports = slices.Compact(imports)
	exports := map[string]string{}
	if len(imports) > 0 {
		list, err := goList(moduleDir, imports...)
		if err != nil {
			return nil, err
		}
		for _, lp := range list {
			exports[lp.ImportPath] = lp.Export
		}
	}
	fset := token.NewFileSet()
	pkg, err := checkPackage(fset, filepath.Base(dir), matches, exportImporter(fset, exports))
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %v", dir, err)
	}
	return pkg, nil
}
