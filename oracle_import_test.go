package adawave_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// oraclePath is the import path of the sequential map-keyed reference
// implementation. It exists only to check the production pipeline against,
// so it must never become part of a production import graph.
const oraclePath = "adawave/internal/oracle"

// TestOracleStaysTestOnly parses the import block of every non-test Go file
// in the tree (the perfbench module included) and fails if any imports the
// oracle: test files may, production files may not.
func TestOracleStaysTestOnly(t *testing.T) {
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == oraclePath {
				t.Errorf("%s imports %s; only _test.go files may", path, oraclePath)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no Go files found; the walk must start at the module root")
	}
}
