package bdd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/logic"
)

func TestFromNetworkMux(t *testing.T) {
	nw := logic.New("mux")
	s := nw.MustInput("s")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	ns := nw.MustGate("ns", logic.Not, s)
	t0 := nw.MustGate("t0", logic.And, ns, a)
	t1 := nw.MustGate("t1", logic.And, s, b)
	o := nw.MustGate("o", logic.Or, t0, t1)
	if err := nw.MarkOutput(o); err != nil {
		t.Fatal(err)
	}
	nb, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	m := nb.M
	want := m.ITE(m.Var(nb.VarOf[s]), m.Var(nb.VarOf[b]), m.Var(nb.VarOf[a]))
	if nb.Fn[o] != want {
		t.Error("mux BDD does not match ITE(s,b,a)")
	}
	// Output probability with uniform inputs: P(mux)=1/2.
	if p := m.Probability(nb.Fn[o], nil); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P(mux)=%v, want 0.5", p)
	}
}

func TestFromNetworkAllGates(t *testing.T) {
	nw := logic.New("g")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	gates := map[string]logic.NodeID{
		"and":  nw.MustGate("g_and", logic.And, a, b),
		"or":   nw.MustGate("g_or", logic.Or, a, b),
		"nand": nw.MustGate("g_nand", logic.Nand, a, b),
		"nor":  nw.MustGate("g_nor", logic.Nor, a, b),
		"xor":  nw.MustGate("g_xor", logic.Xor, a, b),
		"xnor": nw.MustGate("g_xnor", logic.Xnor, a, b),
		"not":  nw.MustGate("g_not", logic.Not, a),
		"buf":  nw.MustGate("g_buf", logic.Buf, b),
	}
	for _, id := range gates {
		if err := nw.MarkOutput(id); err != nil {
			t.Fatal(err)
		}
	}
	k0, _ := nw.AddConst("k0", false)
	k1, _ := nw.AddConst("k1", true)
	nb, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	m := nb.M
	va, vb := m.Var(nb.VarOf[a]), m.Var(nb.VarOf[b])
	checks := map[string]Ref{
		"and": m.And(va, vb), "or": m.Or(va, vb),
		"nand": m.Not(m.And(va, vb)), "nor": m.Not(m.Or(va, vb)),
		"xor": m.Xor(va, vb), "xnor": m.Xnor(va, vb),
		"not": m.Not(va), "buf": vb,
	}
	for name, want := range checks {
		if nb.Fn[gates[name]] != want {
			t.Errorf("gate %s has wrong BDD", name)
		}
	}
	if nb.Fn[k0] != False || nb.Fn[k1] != True {
		t.Error("constants map to terminals")
	}
}

func TestFromNetworkSequential(t *testing.T) {
	// FF outputs become free variables after the PIs.
	nw := logic.New("seq")
	x := nw.MustInput("x")
	c0, _ := nw.AddConst("c0", false)
	q, err := nw.AddDFF("q", c0, false)
	if err != nil {
		t.Fatal(err)
	}
	d := nw.MustGate("d", logic.Xor, x, q)
	if err := nw.ReplaceFanin(q, c0, d); err != nil {
		t.Fatal(err)
	}
	if err := nw.DeleteNode(c0); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(q); err != nil {
		t.Fatal(err)
	}
	nb, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb.Vars) != 2 {
		t.Fatalf("want 2 BDD variables (x, q), got %d", len(nb.Vars))
	}
	m := nb.M
	if nb.Fn[d] != m.Xor(m.Var(nb.VarOf[x]), m.Var(nb.VarOf[q])) {
		t.Error("next-state function wrong")
	}
}

func TestFromNetworkAgainstTruthTable(t *testing.T) {
	// Cross-check BDD evaluation with exhaustive gate-level simulation on a
	// nontrivial reconvergent circuit.
	nw := logic.New("reconv")
	var pis []logic.NodeID
	for _, n := range []string{"a", "b", "c", "d"} {
		pis = append(pis, nw.MustInput(n))
	}
	g1 := nw.MustGate("g1", logic.Nand, pis[0], pis[1])
	g2 := nw.MustGate("g2", logic.Nor, pis[1], pis[2])
	g3 := nw.MustGate("g3", logic.Xor, g1, g2)
	g4 := nw.MustGate("g4", logic.And, g3, pis[3], g1)
	o := nw.MustGate("o", logic.Or, g4, g2)
	if err := nw.MarkOutput(o); err != nil {
		t.Fatal(err)
	}
	nb, err := FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	for mt := 0; mt < 16; mt++ {
		in := make([]bool, 4)
		for i := range in {
			in[i] = mt&(1<<i) != 0
		}
		out, err := nw.EvalComb(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := nb.M.Eval(nb.Fn[o], in); got != out[0] {
			t.Errorf("minterm %d: BDD=%v sim=%v", mt, got, out[0])
		}
	}
}

// TestFromNetworkDFSOrder checks the default levelling on a hand-built
// net: sources take levels in first-visit order of a depth-first walk
// from the POs in order, then from the FF D inputs, and sources the walk
// never reaches go last in declaration order. Variable indices, Vars,
// VarOf and Support stay in declaration order either way.
func TestFromNetworkDFSOrder(t *testing.T) {
	nw := logic.New("levels")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	c := nw.MustInput("c")
	d := nw.MustInput("d")
	u := nw.MustInput("u") // read by nothing
	x := nw.MustGate("x", logic.Xor, d, b)
	q1, err := nw.AddDFF("q1", x, false)
	if err != nil {
		t.Fatal(err)
	}
	nq1 := nw.MustGate("nq1", logic.Not, q1)
	q2, err := nw.AddDFF("q2", nq1, false) // read by nothing
	if err != nil {
		t.Fatal(err)
	}
	g1 := nw.MustGate("g1", logic.And, c, a)
	g2 := nw.MustGate("g2", logic.Or, b, q1)
	for _, po := range []logic.NodeID{g1, g2} {
		if err := nw.MarkOutput(po); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		decl bool
		want string
	}{
		// g1 reaches c then a; g2 reaches b then q1; q1's D input
		// reaches d (b is seen); q2's D input reaches nothing new; u
		// and q2 follow in declaration order.
		{false, "[2 0 1 5 3 4 6]"},
		{true, "[0 1 2 3 4 5 6]"},
	} {
		nb, err := FromNetworkOpts(context.Background(), nw, BuildOptions{DeclarationOrder: tc.decl})
		if err != nil {
			t.Fatal(err)
		}
		m := nb.M
		if got := fmt.Sprint(m.Order()); got != tc.want {
			t.Errorf("decl=%v: order %s, want %s", tc.decl, got, tc.want)
		}
		srcs := []logic.NodeID{a, b, c, d, u, q1, q2}
		if got, want := fmt.Sprint(nb.Vars), fmt.Sprint(srcs); got != want {
			t.Errorf("decl=%v: Vars %s, want %s", tc.decl, got, want)
		}
		for i, s := range srcs {
			if nb.VarOf[s] != i {
				t.Errorf("decl=%v: VarOf[%d] = %d, want %d", tc.decl, s, nb.VarOf[s], i)
			}
			if nb.Fn[s] != m.Var(i) {
				t.Errorf("decl=%v: source %d is not variable %d", tc.decl, s, i)
			}
		}
		if nb.Fn[g1] != m.And(m.Var(2), m.Var(0)) || nb.Fn[x] != m.Xor(m.Var(3), m.Var(1)) {
			t.Errorf("decl=%v: gate functions wrong", tc.decl)
		}
		if got := fmt.Sprint(m.Support(nb.Fn[g2])); got != "[1 5]" {
			t.Errorf("decl=%v: Support(g2) = %s, want [1 5]", tc.decl, got)
		}
	}
}

// TestApplyGateTable: ApplyGate gives each combinational gate type, over
// every legal fanin count up to three, the function logic.EvalGate
// computes on every assignment, and rejects every other type with a
// *logic.UnsupportedGateError that matches logic.ErrUnsupportedGate.
func TestApplyGateTable(t *testing.T) {
	m := New(3)
	vars := []Ref{m.Var(0), m.Var(1), m.Var(2)}
	for typ := logic.Input; typ <= logic.DFF; typ++ {
		if !typ.IsGate() {
			_, err := ApplyGate(m, typ, vars[:1])
			var ue *logic.UnsupportedGateError
			if !errors.As(err, &ue) || ue.Type != typ || !errors.Is(err, logic.ErrUnsupportedGate) {
				t.Errorf("%s: got %v, want an *UnsupportedGateError for it", typ, err)
			}
			continue
		}
		hi := typ.MaxFanin()
		if hi < 0 {
			hi = len(vars)
		}
		for k := typ.MinFanin(); k <= hi; k++ {
			f, err := ApplyGate(m, typ, vars[:k])
			if err != nil {
				t.Fatalf("%s/%d: %v", typ, k, err)
			}
			for a := 0; a < 1<<len(vars); a++ {
				assign := []bool{a&1 != 0, a&2 != 0, a&4 != 0}
				if got, want := m.Eval(f, assign), logic.EvalGate(typ, assign[:k]); got != want {
					t.Errorf("%s/%d at %v: %v, want %v", typ, k, assign, got, want)
				}
			}
		}
	}
}
