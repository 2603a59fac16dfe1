package repro

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stimulusConversionAllowlist names the non-test functions that may call
// sim.RandomVectors, sim.PackVectors or Stimulus.Unpack, each with its
// reason. Everything else draws or takes a sim.Stimulus. Keys are
// "<caller> -> <callee>", the caller as "<import path>.<Func>" or
// "<import path>.<Type>.<Method>".
var stimulusConversionAllowlist = map[string]string{
	"repro/internal/sim.RandomVectors -> Stimulus.Unpack": "the [][]bool draw bench/lpbench and core.NewContext call, unpacked from the one draw loop",
	// [][]bool entry points bench/lpbench calls; ROADMAP item 8 deletes them.
	"repro/internal/sim.MeasureRunCtx -> sim.PackVectors":               "[][]bool wrapper bench/lpbench calls; its workers argument no longer changes anything",
	"repro/internal/sim.PackedSimulator.Run -> sim.PackVectors":         "[][]bool wrapper bench/lpbench calls",
	"repro/internal/power.EstimateZeroDelayPacked -> sim.PackVectors":   "[][]bool wrapper bench/lpbench calls",
	"repro/internal/power.EstimateSimulatedParallel -> sim.PackVectors": "[][]bool wrapper bench/lpbench calls; its workers argument no longer changes anything",
	"repro/internal/power.NewIncrementalEstimator -> sim.PackVectors":   "[][]bool wrapper bench/lpbench calls",
	"repro/internal/core.NewContext -> sim.RandomVectors":               "core.Context.Vectors is a [][]bool that bench/lpbench reads",
	"repro/internal/core.MeasureCtx -> sim.PackVectors":                 "measures core.Context.Vectors",
	"repro/cmd/lpflow.writeProfiles -> sim.PackVectors":                 "lpflow -profile measures core.Context.Vectors",
}

// stimulusSignatureAllowlist names the exported non-test functions and
// methods whose parameters or results may hold a [][]bool, each with its
// reason. Keys are "<import path>.<Func>" or
// "<import path>.<Type>.<Method>".
var stimulusSignatureAllowlist = map[string]string{
	"repro/internal/sim.RandomVectors":   "the [][]bool draw bench/lpbench and core.NewContext call",
	"repro/internal/sim.PackVectors":     "packs core.Context.Vectors and the [][]bool wrappers' rows",
	"repro/internal/sim.Stimulus.Unpack": "the [][]bool view RandomVectors returns and test oracles read",
	// [][]bool entry points bench/lpbench calls; ROADMAP item 8 deletes them.
	"repro/internal/sim.MeasureRunCtx":               "[][]bool wrapper bench/lpbench calls; its workers argument no longer changes anything",
	"repro/internal/sim.PackedSimulator.Run":         "[][]bool wrapper bench/lpbench calls",
	"repro/internal/power.EstimateZeroDelayPacked":   "[][]bool wrapper bench/lpbench calls",
	"repro/internal/power.EstimateSimulatedParallel": "[][]bool wrapper bench/lpbench calls; its workers argument no longer changes anything",
	"repro/internal/power.NewIncrementalEstimator":   "[][]bool wrapper bench/lpbench calls",
}

// TestStimulusConversionsAllowlisted fails on any non-test call in the
// root module to sim.RandomVectors, sim.PackVectors or Stimulus.Unpack
// that stimulusConversionAllowlist does not name, and on allowlist lines
// that name no such call. The engines and techniques take a sim.Stimulus;
// a conversion to or from [][]bool is a second vector format.
func TestStimulusConversionsAllowlisted(t *testing.T) {
	found, err := stimulusConversions(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range found {
		seen[c.key] = true
		if _, ok := stimulusConversionAllowlist[c.key]; !ok {
			t.Errorf("%s: %s converts between sim.Stimulus and [][]bool; take or draw a sim.Stimulus, or add an allowlist line with the reason", c.pos, c.key)
		}
	}
	for key, reason := range stimulusConversionAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist line %s gives no reason", key)
		}
		if !seen[key] {
			t.Errorf("allowlist line %s names no call; remove it", key)
		}
	}
}

// TestStimulusSignaturesAllowlisted fails on any exported non-test
// function or method in the root module with a [][]bool parameter or
// result that stimulusSignatureAllowlist does not name, and on allowlist
// lines that name no such function. A [][]bool in an API is a second
// vector format even when nothing converts it: the caller draws rows
// that a sim.Stimulus holds in a sixty-fourth of the space.
func TestStimulusSignaturesAllowlisted(t *testing.T) {
	found, err := stimulusSignatures(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range found {
		seen[f.key] = true
		if _, ok := stimulusSignatureAllowlist[f.key]; !ok {
			t.Errorf("%s: %s takes or returns a [][]bool; take or return a sim.Stimulus, or add an allowlist line with the reason", f.pos, f.key)
		}
	}
	for key, reason := range stimulusSignatureAllowlist {
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlist line %s gives no reason", key)
		}
		if !seen[key] {
			t.Errorf("allowlist line %s names no [][]bool signature; remove it", key)
		}
	}
}

// TestStimulusSignaturesFixture checks that the signature scan flags
// [][]bool parameters, results, variadic []bool parameters and [][]bool
// nested in another type, on functions and on methods of exported types,
// and passes over unexported functions, methods of unexported types,
// [][]bool inside a body, test files and nested modules.
func TestStimulusSignaturesFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"a/a.go": `package a

type T struct{}
type u struct{}

func Param(rows [][]bool)                    {}
func Result() (n int, rows [][]bool)         { return }
func Variadic(rows ...[]bool)                {}
func Nested(m map[string][][]bool)           {}
func (*T) Method(f func([][]bool)) error     { return nil }
func (u) Hidden(rows [][]bool)               {}
func unexported(rows [][]bool)               {}
func Row(v []bool) [][2]bool                 { return nil }
func Body() int                              { var rows [][]bool; return len(rows) }
`,
		"a/a_test.go": `package a

func Helper(rows [][]bool) {}
`,
		"bench/go.mod": "module fix/bench\n\ngo 1.22\n",
		"bench/b.go": `package bench

func B(rows [][]bool) {}
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
	found, err := stimulusSignatures(dir, "fix")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.key)
	}
	want := []string{
		"fix/a.Nested",
		"fix/a.Param",
		"fix/a.Result",
		"fix/a.T.Method",
		"fix/a.Variadic",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("signatures = %q, want %q", got, want)
	}
}

// TestStimulusConversionsFixture checks that the scan finds calls through
// an import alias, calls inside package sim, method calls and function
// values, skips test files and nested modules, and keys each by its
// enclosing function.
func TestStimulusConversionsFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"internal/sim/sim.go": `package sim

type Stimulus struct{}

func (Stimulus) Unpack() [][]bool { return nil }

func PackVectors([][]bool) (Stimulus, error) { return Stimulus{}, nil }

func RandomVectors() [][]bool { return Stimulus{}.Unpack() }
`,
		"a/a.go": `package a

import s "fix/internal/sim"

var draw = s.RandomVectors

type T struct{}

func (T) M(st s.Stimulus) { _ = st.Unpack() }

func F() { s.PackVectors(nil) }
`,
		"a/a_test.go": `package a

import "fix/internal/sim"

func helper() { sim.PackVectors(nil) }
`,
		"bench/go.mod": "module fix/bench\n\ngo 1.22\n",
		"bench/b.go": `package bench

import "fix/internal/sim"

func B() { sim.RandomVectors() }
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
	found, err := stimulusConversions(dir, "fix")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range found {
		got = append(got, c.key)
	}
	want := []string{
		"fix/a.F -> sim.PackVectors",
		"fix/a.T.M -> Stimulus.Unpack",
		"fix/a.draw -> sim.RandomVectors",
		"fix/internal/sim.RandomVectors -> Stimulus.Unpack",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("conversions = %q, want %q", got, want)
	}
}

// stimulusFinding is one hit of a stimulus guard scan.
type stimulusFinding struct {
	key string // "<caller> -> <callee>", or the function for a signature
	pos string // file:line of the call or declaration
}

// stimulusConversions returns every reference, in the non-test files of
// the module at root (nested modules skipped), to sim.RandomVectors or
// sim.PackVectors — through an import of <module>/internal/sim, or by
// name inside that package — and to a method named Unpack, sorted by
// key. The caller is the enclosing top-level function or method, or the
// declared name for a package-level variable.
func stimulusConversions(root, module string) ([]stimulusFinding, error) {
	simPkg := module + "/internal/sim"
	callees := map[string]bool{"RandomVectors": true, "PackVectors": true}
	var out []stimulusFinding
	fset := token.NewFileSet()
	err := walkModule(fset, root, module, false, func(pkg string, imports map[string]string, f *ast.File) error {
		for _, dl := range f.Decls {
			// Walk everything but the declared names themselves.
			var caller string
			var parts []ast.Node
			switch d := dl.(type) {
			case *ast.FuncDecl:
				caller = pkg + "." + d.Name.Name
				if d.Recv != nil {
					caller = pkg + "." + recvTypeName(d.Recv.List[0].Type) + "." + d.Name.Name
					parts = append(parts, d.Recv)
				}
				parts = append(parts, d.Type)
				if d.Body != nil {
					parts = append(parts, d.Body)
				}
			case *ast.GenDecl:
				var names []string
				for _, sp := range d.Specs {
					if vs, ok := sp.(*ast.ValueSpec); ok {
						for _, n := range vs.Names {
							names = append(names, n.Name)
						}
						for _, v := range vs.Values {
							parts = append(parts, v)
						}
					}
				}
				caller = pkg + "." + strings.Join(names, ",")
			}
			add := func(n ast.Node, callee string) {
				out = append(out, stimulusFinding{key: caller + " -> " + callee, pos: fset.Position(n.Pos()).String()})
			}
			visit := func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
						if imports[id.Name] == simPkg && callees[n.Sel.Name] {
							add(n, "sim."+n.Sel.Name)
						}
						return false
					}
					if n.Sel.Name == "Unpack" {
						add(n, "Stimulus.Unpack")
					}
				case *ast.Ident:
					if pkg == simPkg && callees[n.Name] {
						add(n, "sim."+n.Name)
					}
				}
				return true
			}
			for _, part := range parts {
				ast.Inspect(part, visit)
			}
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, err
}

// stimulusSignatures returns every exported top-level function, and every
// exported method of an exported type, in the non-test files of the
// module at root (nested modules skipped) whose parameters or results
// hold a [][]bool, alone, inside another type or as a variadic ...[]bool,
// sorted by key.
func stimulusSignatures(root, module string) ([]stimulusFinding, error) {
	var out []stimulusFinding
	fset := token.NewFileSet()
	err := walkModule(fset, root, module, false, func(pkg string, _ map[string]string, f *ast.File) error {
		for _, dl := range f.Decls {
			d, ok := dl.(*ast.FuncDecl)
			if !ok || !d.Name.IsExported() {
				continue
			}
			key := pkg + "." + d.Name.Name
			if d.Recv != nil {
				recv := recvTypeName(d.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				key = pkg + "." + recv + "." + d.Name.Name
			}
			if holdsBoolRows(d.Type) {
				out = append(out, stimulusFinding{key: key, pos: fset.Position(d.Pos()).String()})
			}
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, err
}

// holdsBoolRows reports whether a type expression contains [][]bool or a
// variadic ...[]bool.
func holdsBoolRows(e ast.Expr) bool {
	isRow := func(e ast.Expr) bool {
		a, ok := e.(*ast.ArrayType)
		if !ok || a.Len != nil {
			return false
		}
		id, ok := a.Elt.(*ast.Ident)
		return ok && id.Name == "bool"
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ArrayType:
			found = found || n.Len == nil && isRow(n.Elt)
		case *ast.Ellipsis:
			found = found || isRow(n.Elt)
		}
		return !found
	})
	return found
}
