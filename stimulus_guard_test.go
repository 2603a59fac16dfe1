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
	"repro/internal/sim.MeasureRunCtx -> sim.PackVectors":               "[][]bool wrapper bench/lpbench calls",
	"repro/internal/sim.PackedSimulator.Run -> sim.PackVectors":         "[][]bool wrapper bench/lpbench calls",
	"repro/internal/power.EstimateZeroDelayPacked -> sim.PackVectors":   "[][]bool wrapper bench/lpbench calls",
	"repro/internal/power.EstimateSimulatedParallel -> sim.PackVectors": "[][]bool wrapper bench/lpbench calls",
	"repro/internal/power.NewIncrementalEstimator -> sim.PackVectors":   "[][]bool wrapper bench/lpbench calls",
	"repro/internal/core.NewContext -> sim.RandomVectors":               "core.Context.Vectors is a [][]bool that bench/lpbench reads",
	"repro/internal/core.MeasureCtx -> sim.PackVectors":                 "measures core.Context.Vectors",
	"repro/cmd/lpflow.writeProfiles -> sim.PackVectors":                 "lpflow -profile measures core.Context.Vectors",
	"repro/internal/experiments.E14ArchModels -> sim.PackVectors":       "packs sim.WalkVectors, a correlated [][]bool walk",
	"repro/internal/precomp.MeasureGuard -> sim.PackVectors":            "packs rows drawn with r.Intn(2), which no Stimulus draw reproduces",
	"repro/internal/archpower.Characterize -> sim.PackVectors":          "packs toggle-process rows drawn with r.Intn and r.Float64, which no Stimulus draw reproduces",
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

type stimulusConversion struct {
	key string // "<caller> -> <callee>"
	pos string // file:line of the call
}

// stimulusConversions returns every reference, in the non-test files of
// the module at root (nested modules skipped), to sim.RandomVectors or
// sim.PackVectors — through an import of <module>/internal/sim, or by
// name inside that package — and to a method named Unpack, sorted by
// key. The caller is the enclosing top-level function or method, or the
// declared name for a package-level variable.
func stimulusConversions(root, module string) ([]stimulusConversion, error) {
	simPkg := module + "/internal/sim"
	callees := map[string]bool{"RandomVectors": true, "PackVectors": true}
	var out []stimulusConversion
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
				out = append(out, stimulusConversion{key: caller + " -> " + callee, pos: fset.Position(n.Pos()).String()})
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
