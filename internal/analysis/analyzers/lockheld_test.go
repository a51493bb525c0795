package analyzers

import (
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestBlockingCallsExist fails when a blockingCalls key names no function
// or method. lockheld matches callees by key, so a key that names nothing
// (a renamed method, a typo) silently stops guarding the call it was
// written for.
func TestBlockingCallsExist(t *testing.T) {
	// splitKey cuts "pkg/path.Name" or "pkg/path.Type.Method" after the
	// import path, which ends at the first dot past its last slash.
	splitKey := func(key string) (path string, name []string) {
		dot := strings.LastIndex(key, "/") + 1
		dot += strings.Index(key[dot:], ".")
		return key[:dot], strings.Split(key[dot+1:], ".")
	}
	paths := map[string]bool{}
	for key := range blockingCalls {
		path, _ := splitKey(key)
		paths[path] = true
	}
	var src strings.Builder
	src.WriteString("package keys\n\nimport (\n")
	for path := range paths {
		src.WriteString("\t_ " + strconv.Quote(path) + "\n")
	}
	src.WriteString(")\n")
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "keys.go"), []byte(src.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.LoadDir(dir, root)
	if err != nil {
		t.Fatal(err)
	}
	imported := map[string]*types.Package{}
	for _, p := range pkg.Types.Imports() {
		imported[p.Path()] = p
	}
	var missing []string
	for key := range blockingCalls {
		path, name := splitKey(key)
		p := imported[path]
		if p == nil {
			t.Fatalf("%s: package %s did not load", key, path)
		}
		obj := p.Scope().Lookup(name[0])
		if len(name) == 2 {
			if tn, ok := obj.(*types.TypeName); ok {
				obj, _, _ = types.LookupFieldOrMethod(tn.Type(), true, p, name[1])
			} else {
				obj = nil
			}
		}
		if _, ok := obj.(*types.Func); !ok || len(name) > 2 {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("blockingCalls key %s names no function or method", key)
	}
}
