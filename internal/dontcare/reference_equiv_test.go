package dontcare

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/power"
)

// mult6 (12 sources) and cmp16 (32) exceed the witness filter's
// enumeration, so they exercise its seeded rows.
var identityCircuits = []string{"alu4", "cla8", "cmp8", "dec5", "mult4", "mult5", "par16", "radd8", "mult6", "cmp16"}

// TestOptimizeMatchesReference runs the shared-view pass and the
// per-gate-fresh reference on fresh copies of each circuit and demands the
// same rewritten structure and the same Result counts, for every objective
// with and without ODCs.
func TestOptimizeMatchesReference(t *testing.T) {
	for _, name := range identityCircuits {
		for _, obj := range []Objective{Area, NodeActivity, NetworkPower} {
			for _, useODC := range []bool{false, true} {
				opts := Options{Objective: obj, UseODC: useODC}
				t.Run(fmt.Sprintf("%s/%s/odc=%v", name, obj, useODC), func(t *testing.T) {
					if testing.Short() && (name == "cla8" || name == "mult5" || name == "mult6" || name == "cmp16") {
						t.Skip("slow reference run")
					}
					t.Parallel()
					assertSameAsReference(t, name, opts)
				})
			}
		}
	}
}

// TestOptimizeMatchesReferenceBiased repeats the identity check with
// non-uniform source probabilities, which the flow passes forward.
func TestOptimizeMatchesReferenceBiased(t *testing.T) {
	for _, name := range []string{"cmp8", "alu4", "mult4"} {
		for _, obj := range []Objective{NodeActivity, NetworkPower} {
			t.Run(fmt.Sprintf("%s/%s", name, obj), func(t *testing.T) {
				nw, err := circuits.Named(name)
				if err != nil {
					t.Fatal(err)
				}
				probs := power.Probabilities{}
				for i, pi := range nw.PIs() {
					probs[pi] = 0.15 + 0.1*float64(i%7)
				}
				assertSameAsReference(t, name, Options{Objective: obj, UseODC: true, InputProb: probs})
			})
		}
	}
}

func assertSameAsReference(t *testing.T, name string, opts Options) {
	t.Helper()
	got, err := circuits.Named(name)
	if err != nil {
		t.Fatal(err)
	}
	want, err := circuits.Named(name)
	if err != nil {
		t.Fatal(err)
	}
	// InputProb is keyed by NodeID, which both fresh copies share.
	gotRes, err := OptimizeNetwork(got, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := refOptimizeNetwork(want, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gotRes != wantRes {
		t.Errorf("Result %+v, reference %+v", gotRes, wantRes)
	}
	if g, w := logic.StructuralHash(got), logic.StructuralHash(want); g != w {
		t.Errorf("structural hash %s, reference %s", g, w)
	}
}

// TestAnalyzeMatchesReference checks every gate's local don't-care
// environment — DC cover and pattern probabilities, bit for bit — against
// the reference.
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, name := range []string{"cmp8", "alu4", "dec5", "mult4"} {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, useODC := range []bool{false, true} {
			for _, id := range nw.Gates() {
				if len(nw.Node(id).Fanin) > 8 {
					continue
				}
				got, err := Analyze(nw, id, nil, useODC)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refAnalyze(nw, id, nil, useODC)
				if err != nil {
					t.Fatal(err)
				}
				if got.DC.String() != want.DC.String() {
					t.Fatalf("%s gate %d odc=%v: DC %s, reference %s", name, id, useODC, got.DC, want.DC)
				}
				for pat := range want.PatternProb {
					if math.Float64bits(got.PatternProb[pat]) != math.Float64bits(want.PatternProb[pat]) {
						t.Fatalf("%s gate %d: P(pattern %d) = %v, reference %v",
							name, id, pat, got.PatternProb[pat], want.PatternProb[pat])
					}
				}
			}
		}
	}
}

// guardChain is the guarded-evaluation circuit of the precomp tests and
// experiment E13: a deep mixing chain over three inputs gated by en.
func guardChain() *logic.Network {
	nw := logic.New("guard")
	var xs []logic.NodeID
	for i := 0; i < 3; i++ {
		xs = append(xs, nw.MustInput(fmt.Sprintf("x%d", i)))
	}
	en := nw.MustInput("en")
	acc := nw.MustGate("p1", logic.Xor, xs[0], xs[1])
	for i := 2; i <= 16; i++ {
		mix := nw.MustGate(fmt.Sprintf("m%d", i), logic.And, acc, xs[i%3])
		acc = nw.MustGate(fmt.Sprintf("p%d", i), logic.Xor, mix, xs[(i+1)%3])
	}
	out := nw.MustGate("out", logic.And, acc, en)
	if err := nw.MarkOutput(out); err != nil {
		panic(err)
	}
	return nw
}

// TestGlobalODCMatchesReference checks that GlobalODC returns the same
// function, over the same variables, as the reference for every gate of
// the guarded-evaluation circuits and a few benchmarks.
func TestGlobalODCMatchesReference(t *testing.T) {
	nets := map[string]*logic.Network{"guard": guardChain()}
	for _, name := range []string{"cmp8", "alu4", "mult4"} {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = nw
	}
	for name, nw := range nets {
		for _, id := range nw.Gates() {
			m, odc, vars, err := GlobalODC(nw, id)
			if err != nil {
				t.Fatal(err)
			}
			rm, rodc, rvars, err := refGlobalODC(nw, id)
			if err != nil {
				t.Fatal(err)
			}
			if m.NumVars() != rm.NumVars() || fmt.Sprint(vars) != fmt.Sprint(rvars) {
				t.Fatalf("%s gate %d: %d vars %v, reference %d vars %v", name, id, m.NumVars(), vars, rm.NumVars(), rvars)
			}
			if !sameBDD(m, odc, rm, rodc) {
				t.Fatalf("%s gate %d: ODC differs from the reference", name, id)
			}
		}
	}
}

// sameBDD reports whether f in m and g in n are isomorphic graphs — for
// ROBDDs under the same variable order, the same function.
func sameBDD(m *bdd.Manager, f bdd.Ref, n *bdd.Manager, g bdd.Ref) bool {
	seen := map[[2]bdd.Ref]bool{}
	var rec func(f, g bdd.Ref) bool
	rec = func(f, g bdd.Ref) bool {
		if f <= bdd.True || g <= bdd.True {
			return f == g
		}
		if seen[[2]bdd.Ref{f, g}] {
			return true
		}
		seen[[2]bdd.Ref{f, g}] = true
		return m.Level(f) == n.Level(g) &&
			rec(m.Low(f), n.Low(g)) && rec(m.High(f), n.High(g))
	}
	return rec(f, g)
}
