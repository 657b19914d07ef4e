package abcl

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The deprecated construction, observation and execution APIs were deleted
// in favour of NewSystem(With...), the grouped Report(), WithObserver and
// the single parallel window driver. These vet tests parse the source tree
// so a reintroduction fails loudly instead of surviving as silent legacy
// usage.

// bannedIdents are identifiers that belonged to the removed compatibility
// surface: the Config struct and its constructors, and the trace option
// alias.
var bannedIdents = map[string]string{
	"NewSystemConfig":     "build the System with abcl.NewSystem(With...)",
	"MustNewSystemConfig": "build the System with abcl.NewSystem(With...)",
	"WithTrace":           "pass a trace.NewRing(n) to abcl.WithObserver and keep the ring",
}

// deprecatedExecutorIdents are identifiers of the removed execution surface:
// the WithParallelSim option alias and the second (conservative-only) window
// driver. Each maps to its replacement.
var deprecatedExecutorIdents = map[string]string{
	"WithParallelSim": "use abcl.WithExecutor(abcl.Conservative(n))",
	"RunParallel":     "use Engine.RunOptimistic with a speculation ceiling equal to the lookahead",
	"ParallelRun":     "use Machine.OptimisticRun with Window set to the lookahead",
	"ParWindows":      "read OptStats().Windows",
}

// bannedSystemMethods are method names that must never reappear on System
// (each maps to its Report() replacement).
var bannedSystemMethods = map[string]string{
	"Reliable":          "Report().Reliable.Enabled",
	"Elapsed":           "Report().Sched.Elapsed",
	"Utilization":       "Report().Sched.Utilization",
	"Stats":             "Report().Sched.Counters",
	"TotalInstructions": "Report().Sched.TotalInstructions",
	"Packets":           "Report().Wire.Packets",
	"LogicalMsgs":       "Report().Wire.LogicalMsgs",
	"BatchWindow":       "Report().Wire.BatchWindow / BatchMaxBytes",
	"AckDelay":          "Report().Reliable.AckDelay",
	"LocationCache":     "Report().Wire.LocationCache",
	"CheckpointRounds":  "Report().Ckpt.Rounds",
}

// bannedSystemFields are fields that must never reappear on System.
var bannedSystemFields = map[string]string{
	"Trace": "pass a trace.NewRing(n) to WithObserver and keep the ring",
}

func walkGoFiles(t *testing.T, roots []string, includeTests bool, visit func(path string, f *ast.File, fset *token.FileSet)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, root := range roots {
		if _, err := os.Stat(root); err != nil {
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			if !strings.HasSuffix(path, ".go") || (!includeTests && strings.HasSuffix(path, "_test.go")) {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			visit(path, f, fset)
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}
}

// TestNoLegacyConstruction asserts that no internal package, command or
// example references the deleted legacy identifiers.
func TestNoLegacyConstruction(t *testing.T) {
	walkGoFiles(t, []string{"internal", "cmd", "examples"}, false, func(path string, f *ast.File, fset *token.FileSet) {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if ok {
				if fix, banned := bannedIdents[id.Name]; banned {
					t.Errorf("%s: uses deleted legacy identifier %s; %s",
						fset.Position(id.Pos()), id.Name, fix)
				}
			}
			return true
		})
	})
}

// TestNoDeprecatedExecutorOption asserts that no internal package, command
// or example reaches for the deleted execution surface: every caller
// migrated to the unified WithExecutor API and the single window driver.
func TestNoDeprecatedExecutorOption(t *testing.T) {
	walkGoFiles(t, []string{"internal", "cmd", "examples"}, false, func(path string, f *ast.File, fset *token.FileSet) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fix, banned := deprecatedExecutorIdents[id.Name]; banned {
					t.Errorf("%s: uses deleted executor identifier %s; %s",
						fset.Position(id.Pos()), id.Name, fix)
				}
			}
			return true
		})
	})
}

// TestNoLegacyRedeclaration asserts that the root package does not
// re-declare the deleted compatibility surface: the Config type, the banned
// identifiers as functions, or any of the removed accessor methods and
// fields on System.
func TestNoLegacyRedeclaration(t *testing.T) {
	rootFiles, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range rootFiles {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				_, banned := bannedIdents[name]
				if _, dep := deprecatedExecutorIdents[name]; banned || dep {
					t.Errorf("%s: re-declares deleted %s", fset.Position(d.Pos()), name)
				}
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if recvNamed(d.Recv.List[0].Type) == "System" {
						if repl, banned := bannedSystemMethods[name]; banned {
							t.Errorf("%s: re-declares deleted accessor System.%s; readings live in %s",
								fset.Position(d.Pos()), name, repl)
						}
					}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if ts.Name.Name == "Config" {
						t.Errorf("%s: re-declares the deleted Config type; use functional options", fset.Position(ts.Pos()))
					}
					if st, ok := ts.Type.(*ast.StructType); ok && ts.Name.Name == "System" {
						for _, field := range st.Fields.List {
							for _, fn := range field.Names {
								if fix, banned := bannedSystemFields[fn.Name]; banned {
									t.Errorf("%s: re-declares deleted field System.%s; %s", fset.Position(fn.Pos()), fn.Name, fix)
								}
							}
						}
					}
				}
			}
		}
	}
}

func recvNamed(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return recvNamed(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
