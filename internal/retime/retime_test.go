package retime

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sim"
)

// parityPipe builds: XOR chain over n inputs followed by two output
// registers — all the registers sit at the end, so retiming can push them
// back into the chain.
func parityPipe(t *testing.T, n int) *logic.Network {
	t.Helper()
	nw := logic.New(fmt.Sprintf("ppipe%d", n))
	var acc logic.NodeID
	for i := 0; i < n; i++ {
		x := nw.MustInput(fmt.Sprintf("x%d", i))
		if i == 0 {
			acc = x
			continue
		}
		acc = nw.MustGate(fmt.Sprintf("p%d", i), logic.Xor, acc, x)
	}
	f1, err := nw.AddDFF("f1", acc, false)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := nw.AddDFF("f2", f1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(f2); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestBuildGraphWeights(t *testing.T) {
	nw := parityPipe(t, 4)
	g, err := BuildGraph(nw)
	if err != nil {
		t.Fatal(err)
	}
	// 3 XOR gates + host.
	if len(g.Verts) != 4 {
		t.Fatalf("verts = %d, want 4", len(g.Verts))
	}
	// The PO edge carries weight 2 (two FFs).
	found := false
	for _, e := range g.Edges {
		if e.To == Host && e.Weight == 2 {
			found = true
		}
	}
	if !found {
		t.Error("missing weight-2 edge to host")
	}
	p, err := g.Period(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p != 3 {
		t.Errorf("identity period = %v, want 3", p)
	}
}

func TestMinPeriodReducesClock(t *testing.T) {
	nw := parityPipe(t, 7)
	g, err := BuildGraph(nw)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := g.Period(nil)
	if err != nil {
		t.Fatal(err)
	}
	minP, r, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if minP >= p0 {
		t.Errorf("min period %v did not improve on %v", minP, p0)
	}
	if !g.Legal(r) {
		t.Error("returned retiming is illegal")
	}
	// In the Leiserson-Saxe host model, the environment closes the chain
	// into a cycle of 6 unit-delay gates carrying 2 registers, so the best
	// achievable period is ceil(6/2) = 3.
	if minP != 3 {
		t.Errorf("min period = %v, want 3", minP)
	}
}

func TestApplyPreservesBehaviour(t *testing.T) {
	nw := parityPipe(t, 6)
	g, err := BuildGraph(nw)
	if err != nil {
		t.Fatal(err)
	}
	_, r, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	rt, err := g.Apply(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Check(); err != nil {
		t.Fatal(err)
	}
	s1 := logic.NewState(nw)
	s2 := logic.NewState(rt)
	rr := rand.New(rand.NewSource(3))
	const warmup = 5
	for c := 0; c < 300; c++ {
		in := make([]bool, 6)
		for i := range in {
			in[i] = rr.Intn(2) == 1
		}
		o1, err1 := s1.Step(in)
		o2, err2 := s2.Step(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if c >= warmup && o1[0] != o2[0] {
			t.Fatalf("cycle %d: retimed output diverged", c)
		}
	}
}

func TestApplyRejectsIllegal(t *testing.T) {
	nw := parityPipe(t, 4)
	g, err := BuildGraph(nw)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]int, len(g.Verts))
	bad[1] = -5
	if _, err := g.Apply(bad); err == nil {
		t.Error("illegal retiming should be rejected")
	}
}

func TestFeasibleInfeasiblePeriod(t *testing.T) {
	nw := parityPipe(t, 8)
	g, err := BuildGraph(nw)
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Feasible(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r != nil {
		t.Error("period below one gate delay must be infeasible")
	}
}

// registeredMult wraps an array multiplier with input and output
// registers — the glitchy datapath for the FF-filtering measurement.
func registeredMult(t *testing.T, n int) *logic.Network {
	t.Helper()
	comb, err := circuits.ArrayMultiplier(n)
	if err != nil {
		t.Fatal(err)
	}
	// Add an output register on each product bit.
	outs := append([]logic.NodeID(nil), comb.POs()...)
	nw := comb // mutate in place: replace POs with registered versions
	for i, po := range outs {
		ff, err := nw.AddDFF(fmt.Sprintf("of%d", i), po, false)
		if err != nil {
			t.Fatal(err)
		}
		// Redirect PO i to the register.
		nw.POs()[i] = ff
	}
	return nw
}

func TestFFOutputsFilterGlitches(t *testing.T) {
	// Survey §III.C.2: activity at FF outputs << activity at FF inputs on
	// a glitchy circuit.
	nw := registeredMult(t, 5)
	ratio, err := MeasureFFActivityRatio(nw, rand.New(rand.NewSource(9)), 500)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1.3 {
		t.Errorf("D/Q activity ratio = %v, expected well above 1 on a multiplier", ratio)
	}
	// A glitch-free circuit has ratio ~1.
	tree, err := circuits.ParityTree(8)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := tree.AddDFF("of", tree.POs()[0], false)
	if err != nil {
		t.Fatal(err)
	}
	tree.POs()[0] = ff
	ratio2, err := MeasureFFActivityRatio(tree, rand.New(rand.NewSource(9)), 500)
	if err != nil {
		t.Fatal(err)
	}
	if ratio2 > 1.05 {
		t.Errorf("balanced tree D/Q ratio = %v, want ~1", ratio2)
	}
}

func TestLowPowerRetiming(t *testing.T) {
	nw := registeredMult(t, 4)
	r := rand.New(rand.NewSource(17))
	vecs := sim.RandomStimulus(r, 200, len(nw.PIs()), 0.5)
	p := power.DefaultParams()

	g, err := BuildGraph(nw)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := g.Period(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := LowPower(nw, p0, vecs, p, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period > p0+1e-9 {
		t.Errorf("low-power retiming period %v exceeds target %v", res.Period, p0)
	}
	// The retimed circuit must still behave correctly.
	rt, err := g.Apply(res.Retiming)
	if err != nil {
		t.Fatal(err)
	}
	s1 := logic.NewState(nw)
	s2 := logic.NewState(rt)
	rr := rand.New(rand.NewSource(5))
	for c := 0; c < 200; c++ {
		in := make([]bool, len(nw.PIs()))
		for i := range in {
			in[i] = rr.Intn(2) == 1
		}
		o1, _ := s1.Step(in)
		o2, err := s2.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		if c >= 8 {
			for i := range o1 {
				if o1[i] != o2[i] {
					t.Fatalf("cycle %d bit %d: retimed multiplier diverged", c, i)
				}
			}
		}
	}
	// Identity candidate power for reference: low-power result should not
	// be worse than the identity retiming's measured power.
	ident := make([]int, len(g.Verts))
	identNet, err := g.Apply(ident)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := power.Estimate(context.Background(), identNet, power.Spec{Method: power.MethodSimulated, Params: p, Vectors: vecs})
	if err != nil {
		t.Fatal(err)
	}
	identPower := rep.Total() + 2.0*float64(len(identNet.FFs()))*p.Vdd*p.Vdd*p.Freq
	if res.Power > identPower+1e-6 {
		t.Errorf("low-power retiming %v worse than identity %v", res.Power, identPower)
	}
}

func TestLowPowerTargetValidation(t *testing.T) {
	nw := parityPipe(t, 6)
	vecs := sim.RandomStimulus(rand.New(rand.NewSource(1)), 50, 6, 0.5)
	if _, err := LowPower(nw, 0.5, vecs, power.DefaultParams(), 1.0); err == nil {
		t.Error("target below minimum should fail")
	}
}
