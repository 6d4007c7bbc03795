package guardband

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are called through an interface (fmt, errors, json,
// slog, sort, net/http, core.Sink, io.Writer), so no identifier in the
// module names them at the call site.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true,
	"Less": true, "ServeHTTP": true, "Frames": true, "Write": true,
}

// keptOracles have no caller outside tests, yet another package's tests use
// them as an oracle or harness, so they cannot move into a _test.go file.
// Keys are "<directory>.<name>", with the module root as "guardband".
var keptOracles = map[string]string{
	"internal/obs.Lint":           "serve tests lint every /metrics exposition",
	"internal/fault.Disarm":       "serve and store resume tests disarm the plans they arm",
	"internal/xgene.PMDFreq":      "core tests read back the clock a setup applied",
	"internal/xgene.BootCount":    "campaign tests count reboots per shard board",
	"internal/xrand.Perm":         "ecc tests draw random triple-error positions",
	"internal/dram.WeakCellCount": "forces fabrication; perfbench's dram.fab_ms ladder must call it to time one",
	"internal/workloads.All":      "microarch's counter goldens walk every profile",
}

// TestNoUnusedExports fails on an exported top-level func or method that
// no non-test code in the module or in perfbench/ names. It matches by
// name, not by type, so it misses a method that shares its name with a
// used one; it catches the common case, an entry point only tests call.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, pos string }
	var decls []decl
	refs := make(map[string]int)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := make(map[*ast.Ident]bool)
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				names[fn.Name] = true
				if fn.Name.IsExported() {
					dir := filepath.ToSlash(filepath.Dir(path))
					if dir == "." {
						dir = "guardband"
					}
					key := dir + "." + fn.Name.Name
					decls = append(decls, decl{key, fset.Position(fn.Pos()).String()})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				refs[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	unused := make(map[string]bool)
	var bad []string
	for _, d := range decls {
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		if refs[name] > 0 || interfaceMethods[name] {
			continue
		}
		unused[d.key] = true
		if _, ok := keptOracles[d.key]; !ok {
			bad = append(bad, d.pos+": "+d.key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s has no non-test caller: delete it, or move it into a _test.go file", b)
	}
	for key := range keptOracles {
		if !unused[key] {
			t.Errorf("keptOracles entry %s is stale: it has a non-test caller or is gone", key)
		}
	}
}
