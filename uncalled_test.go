package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledAllowlist names the top-level functions and methods that no
// non-test file references but that stay, each with its reason. Keys are
// "<import path>.<Func>" or "<import path>.<Type>.<Method>".
var uncalledAllowlist = map[string]string{
	// Checkers and oracles that tests use to check code that stays.
	"repro/internal/tmap.Mapping.ToNetwork": "TestMapPreservesFunction rebuilds the mapped netlist with it to check the mapper preserves function",
	"repro/internal/stg.STG.WriteKISS":      "FuzzReadKISS checks the KISS parser by a write/read round trip",
	"repro/internal/logic.Network.EvalComb": "truth-table oracle that checks generators, the BLIF reader, SOP synthesis and BDD builds",
	"repro/internal/sop.EvalExpr":           "oracle that TestExtractSharedKernel checks kernel extraction against",
	"repro/internal/sop.Expr.IsCubeFree":    "oracle that TestMakeCubeFree checks MakeCubeFree against",
	"repro/internal/sw.RunBlock":            "runs a block so tests can check that cold scheduling and MAC pairing preserve semantics",
	"repro/internal/bdd.Manager.FromCover":  "builds the reference BDD that the ISOP tests compare covers against",
	"repro/internal/bdd.Manager.NodeCount":  "measures BDD sizes that the reorder tests check sifting with",
	"repro/internal/bdd.Manager.SatCount":   "oracle that the BDD, GC and reorder tests check functions with",
	"repro/internal/dontcare.Analyze":       "reference_equiv_test.go compares it against refAnalyze",
	"repro/internal/timing.Unit":            "the unit-delay model the timing tests drive Analyze with; the only production DelayFn is xsistor's sized model",
	"repro/internal/behav.RandomTraces":     "the correlated stream TestCorrelationAwareBinding feeds binding; the production stream (experiments.delayLineTraces) cannot be imported by behav's tests",
	"repro/internal/circuits.BLIFCorpus":    "shared fixture: the BLIF corpus the sim, logic, circuits and core tests run over",
	"repro/internal/obsv.Disable":           "shared fixture: tests that enable metrics turn them off again",
	"repro/internal/obsv.CatalogNames":      "shared fixture: the obsv and server catalog tests check emitted metrics against it",
	"repro/internal/sim.UintToBits":         "shared fixture: the sim and circuits tests build word-valued vectors with it",
	"repro/internal/sop.ParseCover":         "shared fixture: the sop and dontcare tests build covers from 0/1/- rows",
	"repro/internal/stg.STG.Next":           "shared fixture: the stg, encode and gating tests step machines with it",
	"repro/internal/stg.STG.Reachable":      "shared fixture: the stg tests check extracted and corpus machines with it",
	// Needed by open ROADMAP items.
	"repro/internal/bdd.Manager.ExistsSet": "ROADMAP items 6 and 7",
	"repro/internal/bdd.Manager.Compose":   "ROADMAP items 6 and 7",
	"repro/internal/bdd.Manager.AnySat":    "ROADMAP items 6 and 7",
	// Cited as verified by EXPERIMENTS.md; running them in E8 or E10 would
	// change the tables.
	"repro/internal/encode.ReEncode":                        "EXPERIMENTS.md E8 cites re-encoding as verified",
	"repro/internal/encode.StateOf":                         "EXPERIMENTS.md E8 cites re-encoding as verified",
	"repro/internal/buscode.OneHotResidue.AddConstRotation": "EXPERIMENTS.md E10 cites constant addition by rotation as verified",
}

// implicitMethods are method names the standard library calls through an
// interface when production code hands it a value, so a method with one
// of these names has a caller even when no file spells the selector.
var implicitMethods = map[string]string{
	"Is":          "errors.Is walks every returned error's chain",
	"MarshalJSON": "encoding/json, when cmd/experiments writes its report",
}

// TestNoUncalledFunctions fails on any top-level function or method of
// the root module or the bench module that no non-test Go file
// references, unless uncalledAllowlist names it with a reason. It also
// fails on allowlist lines that no longer name an uncalled function.
// Methods are matched by selector name only: a method counts as called
// when any non-test file calls a method of that name on any type, so one
// whose name another type's called method shares is never flagged.
func TestNoUncalledFunctions(t *testing.T) {
	found, err := uncalledFuncs(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range found {
		seen[f.key] = true
		if _, ok := uncalledAllowlist[f.key]; !ok {
			t.Errorf("%s: %s has no non-test caller; delete it or add an allowlist line with the reason it stays", f.pos, f.key)
		}
	}
	for key, reason := range uncalledAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist line %s gives no reason", key)
		}
		if !seen[key] {
			t.Errorf("allowlist line %s names no uncalled function; remove it", key)
		}
	}
}

// TestUncalledFuncsFixture checks that the scan flags an exported
// function only a test calls, an unexported function nothing calls, a
// function only its own body calls and a function whose name only
// another package's function of the same name shares, and passes over
// functions, methods and interface methods that non-test code reaches.
func TestUncalledFuncsFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"a/a.go": `package a

import "encoding/json"

type T struct{}

func (T) Used()                         {}
func (T) Unused()                       {}
func (T) MarshalJSON() ([]byte, error) { return []byte("1"), nil }

func Exported()     {}
func TestOnly()     {}
func helper()       {}
func uncalled()     { uncalled() }
func Rec(n int) int { if n == 0 { return 0 }; return Rec(n - 1) }
func Twin()         {}

func Entry() { helper(); json.Marshal(T{}) }
`,
		"a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { TestOnly(); T{}.Unused() }
`,
		"b/b.go": `package b

import (
	alias "fix/a"
)

var hook = alias.Exported

func Twin() {}

func main() { alias.Entry(); alias.T{}.Used(); _ = hook; Twin() }
`,
	}
	for name, body := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	found, err := uncalledFuncs(dir, "fix")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.key)
	}
	want := []string{"fix/a.Rec", "fix/a.T.Unused", "fix/a.TestOnly", "fix/a.Twin", "fix/a.uncalled"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("uncalled = %v, want %v", got, want)
	}
}

type uncalledFunc struct {
	key string // "<import path>.<Func>" or "<import path>.<Type>.<Method>"
	pos string // file:line of the declaration
}

// uncalledFuncs parses every non-test Go file under root, where root
// holds module `module`, and returns the top-level functions and
// methods that no non-test file references outside their own bodies,
// sorted by key. A package-level function is referenced by its import
// path and name; a method by a selector with its name on any value.
// The files are those walkModule visits, nested modules like bench
// included.
func uncalledFuncs(root, module string) ([]uncalledFunc, error) {
	type decl struct {
		uncalledFunc
		pkgFunc string // "<import path>.<Func>" for a function, "" for a method
		method  string // method name, "" for a function
	}
	var decls []decl
	funcRefs := map[string]bool{}
	methodRefs := map[string]bool{}
	fset := token.NewFileSet()
	err := walkModule(fset, root, module, true, func(pkg string, imports map[string]string, f *ast.File) error {
		for _, dl := range f.Decls {
			// self is the declaration being walked: a function's
			// references to itself, and a method's selectors of its own
			// name, are recursion, not callers.
			var selfFunc, selfMethod string
			fd, ok := dl.(*ast.FuncDecl)
			if ok {
				dc := decl{uncalledFunc: uncalledFunc{pos: fset.Position(fd.Pos()).String()}}
				if fd.Recv == nil {
					dc.pkgFunc = pkg + "." + fd.Name.Name
					dc.key = dc.pkgFunc
					selfFunc = dc.pkgFunc
				} else {
					dc.method = fd.Name.Name
					dc.key = pkg + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
					selfMethod = fd.Name.Name
				}
				decls = append(decls, dc)
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
						if ref := imports[id.Name] + "." + n.Sel.Name; ref != selfFunc {
							funcRefs[ref] = true
						}
						return false
					}
					if n.Sel.Name != selfMethod {
						methodRefs[n.Sel.Name] = true
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if ref := pkg + "." + n.Name; ref != selfFunc {
						funcRefs[ref] = true
					}
				}
				return true
			}
			if ok {
				// Walk everything but the declared name itself.
				if fd.Recv != nil {
					ast.Inspect(fd.Recv, visit)
				}
				ast.Inspect(fd.Type, visit)
				if fd.Body != nil {
					ast.Inspect(fd.Body, visit)
				}
			} else {
				ast.Inspect(dl, visit)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []uncalledFunc
	for _, d := range decls {
		switch {
		case d.method == "" && (strings.HasSuffix(d.pkgFunc, ".main") || strings.HasSuffix(d.pkgFunc, ".init")):
		case d.method == "" && funcRefs[d.pkgFunc]:
		case d.method != "" && (methodRefs[d.method] || implicitMethods[d.method] != ""):
		default:
			out = append(out, d.uncalledFunc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// walkModule parses every non-test Go file under root, where root holds
// module `module`, and calls fn with each file, its package's import path
// and its imports by local name. Directories Go ignores (testdata, and
// names starting with "." or "_") are skipped, and so, unless nested is
// set, is a directory holding its own go.mod; a nested module whose path
// extends `module` by its directory, like bench, is otherwise walked as
// part of the tree.
func walkModule(fset *token.FileSet, root, module string, nested bool, fn func(pkg string, imports map[string]string, f *ast.File) error) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil && !nested {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := module
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			ip, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				return err
			}
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = ip
		}
		return fn(pkg, imports, f)
	})
}

// recvTypeName returns the type name of a method receiver, without a
// pointer or type parameters.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
