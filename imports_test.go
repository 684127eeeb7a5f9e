package mgsilt

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// numericCore lists the packages a tile solve runs in, under internal/.
// The paper's tile solve is a pure function of its tile-local inputs, so
// these packages import nothing of the module but each other: no fault
// injection, device model, pipeline, cache, batcher, shard or service
// reaches into the Hopkins engine or a solver.
var numericCore = []string{"cpu", "parallel", "grid", "fft", "kernels", "filter", "litho", "opt"}

// TestNumericCoreImports parses the imports of every non-test file of
// the numeric core, for every architecture, and fails on any module
// import outside the core.
func TestNumericCoreImports(t *testing.T) {
	const prefix = "mgsilt/internal/"
	fset := token.NewFileSet()
	for _, pkg := range numericCore {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("internal/%s: no Go files", pkg)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if path != "mgsilt" && !strings.HasPrefix(path, "mgsilt/") {
					continue
				}
				if dep, ok := strings.CutPrefix(path, prefix); !ok || !slices.Contains(numericCore, dep) {
					t.Errorf("%s imports %s, outside the numeric core %v", name, path, numericCore)
				}
			}
		}
	}
}
