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
)

// Package is one parsed and type-checked package, ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listEntry is the part of `go list -json` output the loader reads.
type listEntry struct {
	ImportPath string
	Export     string
}

// goList runs `go list -deps -export -json` in dir over the patterns and
// decodes the JSON stream.
func goList(dir string, patterns []string) ([]listEntry, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(&stdout)
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// exportImporter resolves import paths to compiler export data files.
// importMap translates source import paths to canonical package paths
// (the vet.cfg ImportMap); it may be nil.
func exportImporter(fset *token.FileSet, exports map[string]string, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if importMap != nil {
			if mapped, ok := importMap[path]; ok {
				path = mapped
			}
		}
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

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
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
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
	return &Package{
		ImportPath: path,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// LoadDir loads the single package rooted at dir — typically an
// analysistest golden package under testdata, which `go list` patterns
// skip. The directory's files are parsed directly; their imports are
// resolved by listing the imported paths (with -deps -export) from
// moduleDir, so golden packages may import real repository packages and
// the standard library alike.
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
		entries, err := goList(moduleDir, imports)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.Export != "" {
				exports[e.ImportPath] = e.Export
			}
		}
	}
	fset := token.NewFileSet()
	pkg, err := checkPackage(fset, filepath.Base(dir), matches, exportImporter(fset, exports, nil))
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %v", dir, err)
	}
	return pkg, nil
}
