package power

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/sim"
)

func mustMux(t *testing.T) *logic.Network {
	t.Helper()
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
	return nw
}

func TestExactProbabilitiesMux(t *testing.T) {
	nw := mustMux(t)
	ps, err := ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"s": 0.5, "a": 0.5, "b": 0.5,
		"ns": 0.5, "t0": 0.25, "t1": 0.25, "o": 0.5,
	}
	for name, w := range want {
		got := ps[nw.ByName(name)]
		if math.Abs(got-w) > 1e-12 {
			t.Errorf("P(%s) = %v, want %v", name, got, w)
		}
	}
}

func TestExactProbabilitiesBiased(t *testing.T) {
	nw := mustMux(t)
	in := Probabilities{
		nw.ByName("s"): 0.1,
		nw.ByName("a"): 0.9,
		nw.ByName("b"): 0.2,
	}
	ps, err := ExactProbabilities(context.Background(), nw, in, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	// P(o) = (1-0.1)*0.9 + 0.1*0.2 = 0.83
	if got := ps[nw.ByName("o")]; math.Abs(got-0.83) > 1e-12 {
		t.Errorf("P(o) = %v, want 0.83", got)
	}
}

func TestPropagatedMatchesExactOnTree(t *testing.T) {
	// Without reconvergent fanout the approximation is exact.
	nw, err := circuits.ParityTree(8)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	prop, err := PropagatedProbabilities(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range nw.Live() {
		if math.Abs(exact[id]-prop[id]) > 1e-12 {
			t.Errorf("node %d: exact %v vs propagated %v", id, exact[id], prop[id])
		}
	}
}

func TestPropagatedDivergesOnReconvergence(t *testing.T) {
	// y = a & !a is constant 0; the independence assumption says 0.25.
	nw := logic.New("rc")
	a := nw.MustInput("a")
	na := nw.MustGate("na", logic.Not, a)
	y := nw.MustGate("y", logic.And, a, na)
	if err := nw.MarkOutput(y); err != nil {
		t.Fatal(err)
	}
	exact, err := ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	prop, err := PropagatedProbabilities(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exact[y] != 0 {
		t.Errorf("exact P(a&!a) = %v, want 0", exact[y])
	}
	if math.Abs(prop[y]-0.25) > 1e-12 {
		t.Errorf("propagated P(a&!a) = %v, want 0.25", prop[y])
	}
}

func TestGateProbAllTypes(t *testing.T) {
	nw := logic.New("g")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	ids := map[string]logic.NodeID{
		"and":  nw.MustGate("g_and", logic.And, a, b),
		"or":   nw.MustGate("g_or", logic.Or, a, b),
		"nand": nw.MustGate("g_nand", logic.Nand, a, b),
		"nor":  nw.MustGate("g_nor", logic.Nor, a, b),
		"xor":  nw.MustGate("g_xor", logic.Xor, a, b),
		"xnor": nw.MustGate("g_xnor", logic.Xnor, a, b),
		"buf":  nw.MustGate("g_buf", logic.Buf, a),
		"not":  nw.MustGate("g_not", logic.Not, a),
	}
	for _, id := range ids {
		_ = nw.MarkOutput(id)
	}
	in := Probabilities{a: 0.3, b: 0.6}
	prop, err := PropagatedProbabilities(nw, in)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"and": 0.18, "or": 0.72, "nand": 0.82, "nor": 0.28,
		"xor": 0.3*0.4 + 0.7*0.6, "xnor": 1 - (0.3*0.4 + 0.7*0.6),
		"buf": 0.3, "not": 0.7,
	}
	for name, w := range want {
		if got := prop[ids[name]]; math.Abs(got-w) > 1e-12 {
			t.Errorf("P(%s) = %v, want %v", name, got, w)
		}
	}
	// With no reconvergence the exact result must agree.
	exact, err := ExactProbabilities(context.Background(), nw, in, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for name, id := range ids {
		if math.Abs(exact[id]-prop[id]) > 1e-12 {
			t.Errorf("%s: exact %v vs propagated %v", name, exact[id], prop[id])
		}
	}
}

func TestActivityFormula(t *testing.T) {
	ps := Probabilities{1: 0.5, 2: 0.1, 3: 0.0}
	if got := ps.Activity(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("activity(0.5) = %v, want 0.5", got)
	}
	if got := ps.Activity(2); math.Abs(got-0.18) > 1e-12 {
		t.Errorf("activity(0.1) = %v, want 0.18", got)
	}
	if ps.Activity(3) != 0 {
		t.Error("activity(0) should be 0")
	}
}

func TestEvaluateScaling(t *testing.T) {
	nw := mustMux(t)
	ps, err := ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	p1 := DefaultParams()
	rep1 := Evaluate(nw, p1, nil, ps.Activity)
	// Halving Vdd must cut switching power 4x (the quadratic lever the
	// survey's architecture-level section is built on).
	p2 := p1
	p2.Vdd = p1.Vdd / 2
	p2.LeakPerGate = 0 // isolate the V^2 terms
	p1b := p1
	p1b.LeakPerGate = 0
	rep2 := Evaluate(nw, p2, nil, ps.Activity)
	rep1b := Evaluate(nw, p1b, nil, ps.Activity)
	if math.Abs(rep1b.Total()/rep2.Total()-4.0) > 1e-9 {
		t.Errorf("Vdd/2 power ratio = %v, want 4", rep1b.Total()/rep2.Total())
	}
	if rep1.Total() <= 0 {
		t.Error("power should be positive")
	}
	if !strings.Contains(rep1.String(), "switching") {
		t.Error("report string should mention switching")
	}
}

func TestSwitchingShareOver90Percent(t *testing.T) {
	// E1 sanity: with default params, switching dominates (>90%).
	nw, err := circuits.RippleAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Estimate(context.Background(), nw, Spec{Method: MethodExact, Params: DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.SwitchingShare(); s < 0.90 {
		t.Errorf("switching share = %v, want > 0.90", s)
	}
}

func TestTopConsumers(t *testing.T) {
	nw := mustMux(t)
	rep, err := Estimate(context.Background(), nw, Spec{Method: MethodExact, Params: DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	top := rep.TopConsumers(3)
	if len(top) != 3 {
		t.Fatalf("want 3 consumers, got %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Total() > top[i-1].Total() {
			t.Error("TopConsumers not sorted descending")
		}
	}
	if got := rep.TopConsumers(1000); len(got) != len(rep.Nodes) {
		t.Error("TopConsumers should clamp k")
	}
}

// topByCopySort is the copy-and-sort TopConsumers ran before it sorted
// indices, kept as the tie-order oracle.
func topByCopySort(r Report, k int) []NodePower {
	nodes := append([]NodePower(nil), r.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Total() > nodes[j].Total() })
	return nodes[:min(k, len(nodes))]
}

// TestTopConsumersMatchesCopySort: sorting indices returns the nodes, ties
// included, in the order sorting copies of them did, on circuits whose
// symmetric gates tie.
func TestTopConsumersMatchesCopySort(t *testing.T) {
	for _, name := range []string{"par16", "mux16", "dec5"} {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Method{MethodExact, MethodPropagated} {
			rep, err := Estimate(context.Background(), nw, Spec{Method: m, Params: DefaultParams()})
			if err != nil {
				t.Fatal(err)
			}
			ties := 0
			all := topByCopySort(rep, len(rep.Nodes))
			for i := 1; i < len(all); i++ {
				ties += logic.Bit(all[i].Total() == all[i-1].Total())
			}
			if ties == 0 {
				t.Fatalf("%s/%s: no tied nodes to order", name, m)
			}
			for _, k := range []int{0, 5, len(rep.Nodes)} {
				if got, want := rep.TopConsumers(k), topByCopySort(rep, k); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s, k=%d: TopConsumers differs from the copy-and-sort order", name, m, k)
				}
			}
		}
	}
}

func TestEstimateSimulatedCapturesGlitchPower(t *testing.T) {
	// The unbalanced parity chain glitches; zero-delay exact estimation
	// misses that power, event-driven simulation sees it.
	chain, err := circuits.ParityChain(12)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	vecs := sim.RandomStimulus(r, 600, 12, 0.5)
	p := DefaultParams()
	simRep, err := Estimate(context.Background(), chain, Spec{Method: MethodSimulated, Params: p, Vectors: vecs})
	if err != nil {
		t.Fatal(err)
	}
	exactRep, err := Estimate(context.Background(), chain, Spec{Method: MethodExact, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if simRep.Totals.Spurious == 0 {
		t.Fatal("expected glitches on parity chain")
	}
	if simRep.Switching <= exactRep.Switching {
		t.Errorf("simulated switching %v should exceed zero-delay %v (glitch power)",
			simRep.Switching, exactRep.Switching)
	}
}

func TestSequentialProbabilities(t *testing.T) {
	// 1-bit toggle counter with enable always 1: q spends half its time in
	// each state.
	nw := logic.New("tgl")
	en := nw.MustInput("en")
	c0, _ := nw.AddConst("c0", false)
	q, err := nw.AddDFF("q", c0, false)
	if err != nil {
		t.Fatal(err)
	}
	d := nw.MustGate("d", logic.Xor, en, q)
	if err := nw.ReplaceFanin(q, c0, d); err != nil {
		t.Fatal(err)
	}
	if err := nw.DeleteNode(c0); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(q); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	ps, err := SequentialProbabilities(nw, r, 4000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ps[q]-0.5) > 0.05 {
		t.Errorf("P(q) = %v, want ~0.5", ps[q])
	}
	if ps[en] != 1.0 {
		t.Errorf("P(en) = %v, want 1.0", ps[en])
	}
}

func TestCapModels(t *testing.T) {
	nw := mustMux(t)
	s := nw.Node(nw.ByName("s"))
	// s drives ns and t1: two input pins + self.
	if got := UnitLoadCap(nw, s); got != 3.0 {
		t.Errorf("UnitLoadCap(s) = %v, want 3", got)
	}
	o := nw.Node(nw.ByName("o"))
	// o drives nothing internally but is a PO: self + external load.
	if got := UnitLoadCap(nw, o); got != 2.0 {
		t.Errorf("UnitLoadCap(o) = %v, want 2", got)
	}
}

// Property: for any combinational circuit, zero-delay useful activity
// measured by simulation converges to 2p(1-p) from exact probabilities.
func TestSimulatedMatchesProbabilistic(t *testing.T) {
	nw, err := circuits.Comparator(5)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(nw, sim.UnitDelay)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(23))
	if _, err := s.Run(sim.RandomStimulus(r, 20000, 10, 0.5)); err != nil {
		t.Fatal(err)
	}
	for _, id := range nw.Gates() {
		want := ps.Activity(id)
		got := float64(s.UsefulTransitions(id)) / float64(s.Cycles())
		if math.Abs(got-want) > 0.03 {
			t.Errorf("node %s: measured useful activity %v, probabilistic %v",
				nw.Node(id).Name, got, want)
		}
	}
}
