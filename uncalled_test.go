package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
	"repro/internal/tmap.Mapping.ToNetwork":  "TestMapPreservesFunction rebuilds the mapped netlist with it to check the mapper preserves function",
	"repro/internal/stg.STG.WriteKISS":       "FuzzReadKISS checks the KISS parser by a write/read round trip",
	"repro/internal/logic.Network.EvalComb":  "truth-table oracle that checks generators, the BLIF reader, SOP synthesis and BDD builds",
	"repro/internal/sop.EvalExpr":            "oracle that TestExtractSharedKernel checks kernel extraction against",
	"repro/internal/sop.Expr.IsCubeFree":     "oracle that TestMakeCubeFree checks MakeCubeFree against",
	"repro/internal/sw.RunBlock":             "runs a block so tests can check that cold scheduling and MAC pairing preserve semantics",
	"repro/internal/bdd.Manager.FromCover":   "builds the reference BDD that the ISOP tests compare covers against",
	"repro/internal/bdd.Manager.NodeCount":   "measures BDD sizes that the reorder tests check sifting with",
	"repro/internal/bdd.Manager.SatCount":    "oracle that the BDD, GC and reorder tests check functions with",
	"repro/internal/bdd.Manager.Eval":        "point-evaluation oracle that the BDD, fuzz, GC and network-build tests check functions with",
	"repro/internal/behav.DFG.Check":         "well-formedness oracle that the behav tests check built and transformed graphs with",
	"repro/internal/behav.DFG.Eval":          "oracle that the behav tests check transformations preserve behaviour with",
	"repro/internal/behav.Schedule.Validate": "oracle that the behav tests check ASAP, ALAP and list schedules with",
	"repro/internal/sop.Cover.Eval":          "point-evaluation oracle that the sop and dontcare tests check covers with",
	"repro/internal/sop.Cover.Equivalent":    "oracle that the cover, espresso, oracle and quick tests check covers with",
	"repro/internal/dontcare.Analyze":        "reference_equiv_test.go compares it against refAnalyze",
	"repro/internal/timing.Unit":             "the unit-delay model the timing tests drive Analyze with; the only production DelayFn is xsistor's sized model",
	"repro/internal/behav.RandomTraces":      "the correlated stream TestCorrelationAwareBinding feeds binding; the production stream (experiments.delayLineTraces) cannot be imported by behav's tests",
	"repro/internal/circuits.BLIFCorpus":     "shared fixture: the BLIF corpus the sim, logic, circuits and core tests run over",
	"repro/internal/circuits.RandomUpload":   "shared fixture: the seeded uploads TestUploadSoak, FuzzFlowUpload and the dontcare power and witness tests draw (ROADMAP item 19)",
	"repro/internal/circuits.RandomDAG":      "shared fixture: the random networks the sim, power, logic, bdd and core property tests draw",
	"repro/internal/obsv.Disable":            "shared fixture: tests that enable metrics turn them off again",
	"repro/internal/obsv.CatalogNames":       "shared fixture: the obsv and server catalog tests check emitted metrics against it",
	"repro/internal/sim.UintToBits":          "shared fixture: the sim and circuits tests build word-valued vectors with it",
	"repro/internal/sop.ParseCover":          "shared fixture: the sop and dontcare tests build covers from 0/1/- rows",
	"repro/internal/stg.STG.Next":            "shared fixture: the stg, encode and gating tests step machines with it",
	"repro/internal/stg.STG.Reachable":       "shared fixture: the stg tests check extracted and corpus machines with it",
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
// References are resolved by type: a method counts as called when a
// non-test file names it on a value of its own receiver type (or of a
// type embedding it), so sharing a called method's name does not hide
// it. A call through an interface cannot be resolved statically and
// counts as a call of every method of that name.
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
// function only its own body calls, a function whose name only another
// package's function of the same name shares and a method whose name
// only another type's called method shares, and passes over functions,
// methods and interface methods that non-test code reaches, and every
// method whose name a call through an interface names.
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
func (T) Via()                          {}

type U struct{}

func (U) Used() {}
func (U) Via()  {}

type I interface{ Via() }

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

func main() {
	alias.Entry()
	alias.T{}.Used()
	_ = hook
	Twin()
	var i alias.I = alias.T{}
	i.Via()
}
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
	want := []string{"fix/a.Rec", "fix/a.T.Unused", "fix/a.TestOnly", "fix/a.Twin", "fix/a.U.Used", "fix/a.uncalled"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("uncalled = %v, want %v", got, want)
	}
}

type uncalledFunc struct {
	key string // "<import path>.<Func>" or "<import path>.<Type>.<Method>"
	pos string // file:line of the declaration
}

// uncalledFuncs type-checks every non-test Go file under root, where
// root holds module `module`, and returns the top-level functions and
// methods that no non-test file references outside their own bodies,
// sorted by key. A reference is resolved to the function or method it
// names, so a method counts as called only when a selector on its own
// receiver type (or a type embedding it) names it. The exception is a
// call through an interface: it cannot be resolved statically, so it
// counts as a call of every method of that name. The files are those
// walkModule visits, nested modules like bench included; imports from
// outside the tree come from importer.Default.
func uncalledFuncs(root, module string) ([]uncalledFunc, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	var order []string
	err := walkModule(fset, root, module, true, func(pkg string, _ map[string]string, f *ast.File) error {
		if files[pkg] == nil {
			order = append(order, pkg)
		}
		files[pkg] = append(files[pkg], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	im := &treeImporter{fset: fset, files: files, info: info, std: importer.Default(), pkgs: map[string]*types.Package{}}
	type decl struct {
		uncalledFunc
		fn *types.Func
	}
	var decls []decl
	refs := map[*types.Func]bool{}
	ifaceRefs := map[string]bool{} // method names called through an interface
	for _, pkg := range order {
		if _, err := im.Import(pkg); err != nil {
			return nil, err
		}
		for _, f := range files[pkg] {
			for _, dl := range f.Decls {
				// self is the declaration being walked: its references
				// to itself are recursion, not callers.
				var self *types.Func
				fd, ok := dl.(*ast.FuncDecl)
				if ok {
					self = info.Defs[fd.Name].(*types.Func)
					key := pkg + "." + fd.Name.Name
					if fd.Recv != nil {
						key = pkg + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
					}
					decls = append(decls, decl{uncalledFunc{key, fset.Position(fd.Pos()).String()}, self})
				}
				ast.Inspect(dl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					fn = fn.Origin()
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceRefs[fn.Name()] = true
					} else if fn != self {
						refs[fn] = true
					}
					return true
				})
			}
		}
	}
	var out []uncalledFunc
	for _, d := range decls {
		name := d.fn.Name()
		isMethod := d.fn.Type().(*types.Signature).Recv() != nil
		switch {
		case !isMethod && (name == "main" || name == "init"):
		case refs[d.fn]:
		case isMethod && (ifaceRefs[name] || implicitMethods[name] != ""):
		default:
			out = append(out, d.uncalledFunc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// treeImporter type-checks the tree's packages from their parsed
// non-test files, each once, recording into one shared types.Info, and
// imports everything else through std.
type treeImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package
}

func (im *treeImporter) Import(path string) (*types.Package, error) {
	if p := im.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	conf := types.Config{Importer: im}
	p, err := conf.Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
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
