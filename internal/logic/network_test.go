package logic

import (
	"strings"
	"testing"
	"testing/quick"
)

func buildMux(t *testing.T) *Network {
	t.Helper()
	nw := New("mux")
	s := nw.MustInput("s")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	ns := nw.MustGate("ns", Not, s)
	t0 := nw.MustGate("t0", And, ns, a)
	t1 := nw.MustGate("t1", And, s, b)
	o := nw.MustGate("o", Or, t0, t1)
	if err := nw.MarkOutput(o); err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestMuxEval(t *testing.T) {
	nw := buildMux(t)
	cases := []struct {
		s, a, b, want bool
	}{
		{false, false, true, false},
		{false, true, false, true},
		{true, false, true, true},
		{true, true, false, false},
	}
	for _, c := range cases {
		out, err := nw.EvalComb([]bool{c.s, c.a, c.b})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != c.want {
			t.Errorf("mux(s=%v,a=%v,b=%v) = %v, want %v", c.s, c.a, c.b, out[0], c.want)
		}
	}
}

func TestEvalGateTypes(t *testing.T) {
	cases := []struct {
		t    GateType
		in   []bool
		want bool
	}{
		{Buf, []bool{true}, true},
		{Not, []bool{true}, false},
		{And, []bool{true, true, true}, true},
		{And, []bool{true, false, true}, false},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Nand, []bool{true, true}, false},
		{Nand, []bool{true, false}, true},
		{Nor, []bool{false, false}, true},
		{Nor, []bool{true, false}, false},
		{Xor, []bool{true, true, true}, true},
		{Xor, []bool{true, true}, false},
		{Xnor, []bool{true, true}, true},
		{Xnor, []bool{true, false, false}, false},
	}
	for _, c := range cases {
		if got := EvalGate(c.t, c.in); got != c.want {
			t.Errorf("EvalGate(%s, %v) = %v, want %v", c.t, c.in, got, c.want)
		}
	}
}

func TestGateTypeStrings(t *testing.T) {
	for gt := Input; gt < numGateTypes; gt++ {
		if s := gt.String(); s == "" || strings.HasPrefix(s, "gatetype(") {
			t.Errorf("missing name for gate type %d", int(gt))
		}
	}
	if GateType(99).String() != "gatetype(99)" {
		t.Error("out-of-range gate type should format numerically")
	}
}

func TestFaninArityErrors(t *testing.T) {
	nw := New("t")
	a := nw.MustInput("a")
	if _, err := nw.AddGate("g", And, a); err == nil {
		t.Error("1-input AND should be rejected")
	}
	if _, err := nw.AddGate("g", Not, a, a); err == nil {
		t.Error("2-input NOT should be rejected")
	}
	if _, err := nw.AddGate("g", Input, a); err == nil {
		t.Error("AddGate(Input) should be rejected")
	}
	if _, err := nw.AddInput("a"); err == nil {
		t.Error("duplicate name should be rejected")
	}
	if _, err := nw.AddGate("g2", Not, NodeID(42)); err == nil {
		t.Error("missing fanin should be rejected")
	}
}

func TestTopoOrderAndLevels(t *testing.T) {
	nw := buildMux(t)
	order, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range order {
		for _, f := range nw.Node(id).Fanin {
			if nw.Node(f).Type == Input {
				continue
			}
			if pos[f] >= pos[id] {
				t.Errorf("node %d appears before its fanin %d", id, f)
			}
		}
	}
	lv, max, err := nw.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if max != 3 {
		t.Errorf("mux depth = %d, want 3", max)
	}
	if lv[nw.ByName("o")] != 3 || lv[nw.ByName("ns")] != 1 {
		t.Errorf("unexpected levels: o=%d ns=%d", lv[nw.ByName("o")], lv[nw.ByName("ns")])
	}
}

func TestSequentialStep(t *testing.T) {
	// Toggle flip-flop: q' = q xor en.
	nw := New("toggle")
	en := nw.MustInput("en")
	// Placeholder wiring: build xor after dff exists.
	c0, _ := nw.AddConst("c0", false)
	q, err := nw.AddDFF("q", c0, false)
	if err != nil {
		t.Fatal(err)
	}
	x := nw.MustGate("x", Xor, en, q)
	if err := nw.ReplaceFanin(q, c0, x); err != nil {
		t.Fatal(err)
	}
	if err := nw.DeleteNode(c0); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(q); err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	st := NewState(nw)
	seq := []bool{true, false, true, true, false}
	want := []bool{false, true, true, false, true} // q before each clock edge
	for i, e := range seq {
		out, err := st.Step([]bool{e})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != want[i] {
			t.Errorf("cycle %d: q = %v, want %v", i, out[0], want[i])
		}
	}
}

func TestReplaceNodeAndSweep(t *testing.T) {
	nw := buildMux(t)
	// Replace t1 with a fresh AND of the same inputs; t1 becomes dead.
	s, b := nw.ByName("s"), nw.ByName("b")
	t1 := nw.ByName("t1")
	t1b := nw.MustGate("t1b", And, s, b)
	if err := nw.ReplaceNode(t1, t1b); err != nil {
		t.Fatal(err)
	}
	if nw.Node(t1) != nil {
		t.Error("t1 should be dead after ReplaceNode")
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	out, err := nw.EvalComb([]bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if !out[0] {
		t.Error("mux function changed by ReplaceNode")
	}
	// Add an orphan chain; sweep should remove both gates.
	a := nw.ByName("a")
	g1 := nw.MustGate("orph1", Not, a)
	nw.MustGate("orph2", Not, g1)
	if got := nw.SweepDead(); got != 2 {
		t.Errorf("SweepDead removed %d nodes, want 2", got)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteNodeGuards(t *testing.T) {
	nw := buildMux(t)
	if err := nw.DeleteNode(nw.ByName("t0")); err == nil {
		t.Error("deleting a node with consumers must fail")
	}
	if err := nw.DeleteNode(nw.ByName("o")); err == nil {
		t.Error("deleting a PO driver must fail")
	}
}

func TestTransitiveCones(t *testing.T) {
	nw := buildMux(t)
	fi := nw.TransitiveFanin(nw.ByName("t0"))
	for _, want := range []string{"t0", "ns", "s", "a"} {
		if !fi[nw.ByName(want)] {
			t.Errorf("fanin cone of t0 missing %s", want)
		}
	}
	if fi[nw.ByName("b")] {
		t.Error("fanin cone of t0 should not contain b")
	}
}

func TestCloneIndependence(t *testing.T) {
	nw := buildMux(t)
	c := nw.Clone()
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not affect the original.
	s, b := c.ByName("s"), c.ByName("b")
	c.MustGate("extra", And, s, b)
	if nw.ByName("extra") != InvalidNode {
		t.Error("clone mutation leaked into original")
	}
	eq, err := Equivalent(nw, c)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("clone should be functionally equivalent")
	}
}

func TestTruthTable(t *testing.T) {
	nw := buildMux(t)
	tt, err := nw.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	// PI order: s=0, a=1, b=2. mux = s ? b : a.
	for m := 0; m < 8; m++ {
		s := m&1 != 0
		a := m&2 != 0
		b := m&4 != 0
		want := a
		if s {
			want = b
		}
		got := tt[0][0]&(1<<m) != 0
		if got != want {
			t.Errorf("minterm %d: got %v want %v", m, got, want)
		}
	}
}

func TestStatsString(t *testing.T) {
	nw := buildMux(t)
	st := nw.Stats()
	if st.Inputs != 3 || st.Outputs != 1 || st.Gates != 4 || st.FFs != 0 || st.Levels != 3 {
		t.Errorf("unexpected stats: %v", st)
	}
	if !strings.Contains(st.String(), "gates=4") {
		t.Errorf("stats string malformed: %s", st)
	}
}

// Property: EvalGate(Nand) == !EvalGate(And) and dual for Nor/Or, Xnor/Xor.
func TestGateDualityProperty(t *testing.T) {
	f := func(raw []bool) bool {
		if len(raw) < 2 {
			return true
		}
		in := raw[:min(len(raw), 6)]
		return EvalGate(Nand, in) == !EvalGate(And, in) &&
			EvalGate(Nor, in) == !EvalGate(Or, in) &&
			EvalGate(Xnor, in) == !EvalGate(Xor, in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestReplaceFaninDuplicatePins: rewiring a consumer that uses the same
// driver on several pins must keep the one-fanout-entry-per-pin invariant
// (topoOrder's indegree accounting depends on it; regression for a
// phantom combinational-cycle report).
func TestReplaceFaninDuplicatePins(t *testing.T) {
	nw := New("dup")
	a := nw.MustInput("a")
	b := nw.MustGate("b", Not, a)
	g := nw.MustGate("g", And, b, b)
	if err := nw.MarkOutput(g); err != nil {
		t.Fatal(err)
	}
	c := nw.MustGate("c", Buf, a)
	if err := nw.ReplaceFanin(g, b, c); err != nil {
		t.Fatal(err)
	}
	if got := nw.Node(c).Fanout(); len(got) != 2 || got[0] != g || got[1] != g {
		t.Fatalf("fanout of new driver = %v, want one entry per pin [g g]", got)
	}
	if got := nw.Node(b).Fanout(); len(got) != 0 {
		t.Fatalf("old driver still has fanout %v", got)
	}
	if _, err := nw.TopoOrder(); err != nil {
		t.Fatalf("phantom cycle after duplicate-pin rewire: %v", err)
	}
}

// TestInverterReusesOrFreshlyNames: Inverter returns a Not gate already in
// the fanout; otherwise it adds one named <name>_n, or under the first
// free FreshName suffix when that name is taken. A deleted node's name is
// free again.
func TestInverterReusesOrFreshlyNames(t *testing.T) {
	nw := buildMux(t)
	s, a, b := nw.ByName("s"), nw.ByName("a"), nw.ByName("b")
	if got, err := nw.Inverter(s); err != nil || got != nw.ByName("ns") {
		t.Errorf("Inverter(s) = %d, %v; want the existing ns (%d)", got, err, nw.ByName("ns"))
	}
	nw.MustGate("a_n", Buf, a)
	nw.MustGate("a_n_1", Buf, b)
	inv, err := nw.Inverter(a)
	if err != nil {
		t.Fatal(err)
	}
	if n := nw.Node(inv); n.Name != "a_n_2" || n.Type != Not || len(n.Fanin) != 1 || n.Fanin[0] != a {
		t.Errorf("Inverter(a) added %s %s%v, want a_n_2 NOT [a]", n.Name, n.Type, n.Fanin)
	}
	if again, err := nw.Inverter(a); err != nil || again != inv {
		t.Errorf("second Inverter(a) = %d, %v; want the reused %d", again, err, inv)
	}
	if inv, err := nw.Inverter(b); err != nil || nw.Node(inv).Name != "b_n" {
		t.Errorf("Inverter(b) = %d, %v; want a new b_n", inv, err)
	}
	if err := nw.DeleteNode(nw.ByName("a_n_1")); err != nil {
		t.Fatal(err)
	}
	if got := nw.FreshName("a_n"); got != "a_n_1" {
		t.Errorf("FreshName(a_n) = %q after deleting a_n_1, want a_n_1", got)
	}
	if got := nw.FreshName("free"); got != "free" {
		t.Errorf("FreshName(free) = %q, want free", got)
	}
	if _, err := nw.Inverter(InvalidNode); err == nil {
		t.Error("Inverter of a missing node must fail")
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
}
