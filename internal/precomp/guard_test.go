package precomp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/power"
)

// guardedExample builds: f = a deep busy cone over three inputs (a
// 16-stage mixing chain reusing x0/x1/x2 at every stage), out = f AND en.
// When en = 0, f is unobservable — the classic guarded-evaluation target.
// The narrow boundary (3 signals) against the deep region (32 gates) is
// the regime where guarding pays.
func guardedExample(t *testing.T) (*logic.Network, logic.NodeID) {
	t.Helper()
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
		t.Fatal(err)
	}
	return nw, acc
}

func TestRegionComputation(t *testing.T) {
	nw, f := guardedExample(t)
	reg := Region(nw, f)
	// The whole mixing chain is in the region; the output AND is not.
	for i := 2; i <= 16; i++ {
		if !reg[nw.ByName(fmt.Sprintf("p%d", i))] {
			t.Errorf("p%d should be in the region", i)
		}
	}
	if reg[nw.ByName("out")] {
		t.Error("the observable output gate must not be in the region")
	}
}

func TestRegionStopsAtSharedLogic(t *testing.T) {
	// A cone gate also feeding a PO must stay outside the region.
	nw := logic.New("shared")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	en := nw.MustInput("en")
	shared := nw.MustGate("shared", logic.Xor, a, b)
	f := nw.MustGate("f", logic.Not, shared)
	out := nw.MustGate("out", logic.And, f, en)
	if err := nw.MarkOutput(out); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(shared); err != nil {
		t.Fatal(err)
	}
	reg := Region(nw, f)
	if reg[shared] {
		t.Error("gate driving a primary output must not be frozen")
	}
	if !reg[f] {
		t.Error("target must be in its own region")
	}
}

func TestGuardEvaluationPreservesOutputs(t *testing.T) {
	nw, f := guardedExample(t)
	orig := nw.Clone()
	origRegion := []logic.NodeID{}
	for id := range Region(orig, f) {
		origRegion = append(origRegion, id)
	}
	gc, err := GuardEvaluation(nw, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if gc.GuardGates <= 0 {
		t.Error("guard logic should have been added")
	}
	rep, err := MeasureGuard(orig, gc, origRegion, rand.New(rand.NewSource(3)), 3000, power.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("guarded circuit diverged on %d cycles", rep.Mismatches)
	}
	// en is uniform: guard asserted about half the time.
	if rep.GuardedFraction < 0.4 || rep.GuardedFraction > 0.6 {
		t.Errorf("guarded fraction %v, want ~0.5", rep.GuardedFraction)
	}
	// Region switching drops substantially (frozen half the time).
	if float64(rep.RegionToggles) > 0.75*float64(rep.BaselineToggles) {
		t.Errorf("region toggles %d vs baseline %d: expected a large reduction",
			rep.RegionToggles, rep.BaselineToggles)
	}
}

func TestGuardEvaluationPowerTradeoff(t *testing.T) {
	// On this example the region is deep and the guard is one literal, so
	// total power should fall too.
	nw, f := guardedExample(t)
	orig := nw.Clone()
	var origRegion []logic.NodeID
	for id := range Region(orig, f) {
		origRegion = append(origRegion, id)
	}
	gc, err := GuardEvaluation(nw, f)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := MeasureGuard(orig, gc, origRegion, rand.New(rand.NewSource(9)), 3000, power.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.GuardPower >= rep.BaselinePower {
		t.Errorf("guarded power %v should beat baseline %v on a deep cone", rep.GuardPower, rep.BaselinePower)
	}
}

func TestGuardEvaluationValidation(t *testing.T) {
	nw, _ := guardedExample(t)
	if _, err := GuardEvaluation(nw, nw.ByName("x0")); err == nil {
		t.Error("guarding a PI should fail")
	}
	// A node that is always observable: the PO driver itself.
	nw2, _ := guardedExample(t)
	if _, err := GuardEvaluation(nw2, nw2.ByName("out")); err == nil {
		t.Error("always-observable node should be rejected")
	}
}

// TestShortRunsAreFinite: with fewer than two cycles no transition is
// counted, so logic power is leakage alone, and with no cycles every
// fraction is 0 — never NaN.
func TestShortRunsAreFinite(t *testing.T) {
	p := power.DefaultParams()
	pc, err := BuildComparator(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw, f := guardedExample(t)
	orig := nw.Clone()
	var origRegion []logic.NodeID
	for id := range Region(orig, f) {
		origRegion = append(origRegion, id)
	}
	gc, err := GuardEvaluation(nw, f)
	if err != nil {
		t.Fatal(err)
	}
	idle := func(nw *logic.Network) float64 {
		return power.Evaluate(nw, p, nil, func(logic.NodeID) float64 { return 0 }).Total()
	}
	for _, tc := range []struct {
		name string
		// run returns the measured fraction, then each logic power with
		// the network it was measured on.
		run func(cycles int) (float64, []float64, []*logic.Network)
	}{
		{"Comparator.Measure", func(cycles int) (float64, []float64, []*logic.Network) {
			rep, err := pc.Measure(rand.New(rand.NewSource(1)), cycles, p, 2.0, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(rep.ClockPower) || math.IsNaN(rep.Total()) {
				t.Errorf("%d cycles: clock power %v, total %v", cycles, rep.ClockPower, rep.Total())
			}
			return rep.LoadFraction, []float64{rep.LogicPower}, []*logic.Network{pc.Network}
		}},
		{"MeasureGuard", func(cycles int) (float64, []float64, []*logic.Network) {
			rep, err := MeasureGuard(orig, gc, origRegion, rand.New(rand.NewSource(1)), cycles, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Mismatches != 0 {
				t.Errorf("%d cycles: %d mismatches", cycles, rep.Mismatches)
			}
			return rep.GuardedFraction, []float64{rep.BaselinePower, rep.GuardPower}, []*logic.Network{orig, gc.Network}
		}},
	} {
		for _, cycles := range []int{0, 1, 2} {
			frac, powers, nets := tc.run(cycles)
			if math.IsNaN(frac) || frac < 0 || frac > 1 || (cycles == 0 && frac != 0) {
				t.Errorf("%s, %d cycles: fraction %v", tc.name, cycles, frac)
			}
			for i, pw := range powers {
				if math.IsNaN(pw) || (cycles < 2 && pw != idle(nets[i])) {
					t.Errorf("%s, %d cycles: logic power %v, want finite and leakage-only below two cycles", tc.name, cycles, pw)
				}
			}
		}
	}
}

// TestMeasureGuardCountsEveryOutput: a "guarded" network that inverts
// both outputs of the original disagrees on every output of every cycle.
func TestMeasureGuardCountsEveryOutput(t *testing.T) {
	build := func(invert bool) *logic.Network {
		nw := logic.New("two")
		a, b := nw.MustInput("a"), nw.MustInput("b")
		x, y := nw.MustGate("x", logic.And, a, b), nw.MustGate("y", logic.Xor, a, b)
		if invert {
			x, y = nw.MustGate("nx", logic.Not, x), nw.MustGate("ny", logic.Not, y)
		}
		for _, po := range []logic.NodeID{x, y} {
			if err := nw.MarkOutput(po); err != nil {
				t.Fatal(err)
			}
		}
		return nw
	}
	inv := build(true)
	gc := &GuardedCircuit{Network: inv, Guard: inv.ByName("x"), HoldMuxes: map[logic.NodeID]bool{}}
	rep, err := MeasureGuard(build(false), gc, nil, rand.New(rand.NewSource(2)), 50, power.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 100 {
		t.Errorf("mismatches = %d, want 2 outputs x 50 cycles", rep.Mismatches)
	}
}
