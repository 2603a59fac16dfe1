package xsistor

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/power"
	"repro/internal/sim"
)

func TestSeriesStackNANDSemantics(t *testing.T) {
	s, err := NewSeriesStack(3)
	if err != nil {
		t.Fatal(err)
	}
	st := s.NewState()
	// Output is the NAND of the inputs regardless of ordering.
	cases := [][]bool{
		{false, false, false},
		{true, true, true},
		{true, false, true},
		{true, true, false},
		{true, true, true},
	}
	for i, in := range cases {
		s.Step(st, in)
		want := !(in[0] && in[1] && in[2])
		if st.out != want {
			t.Errorf("cycle %d: out=%v want %v", i, st.out, want)
		}
	}
}

func TestSeriesStackValidation(t *testing.T) {
	if _, err := NewSeriesStack(1); err == nil {
		t.Error("1-input stack should be rejected")
	}
}

func TestInternalNodeCharging(t *testing.T) {
	// Two-input stack, one internal node. Inputs (by position): top t,
	// bottom b. Internal node is grounded when b=1, tied to out when t=1.
	s, _ := NewSeriesStack(2)
	st := s.NewState()
	// Reset: out=1, internal=0.
	// Apply t=1, b=0: internal connects to out (high): charges -> C_int
	// switched; out stays 1.
	sw := s.Step(st, []bool{true, false})
	if math.Abs(sw-s.CInternal) > 1e-12 {
		t.Errorf("charge event switched %v, want %v", sw, s.CInternal)
	}
	// Apply t=0, b=1: internal grounds: discharges.
	sw = s.Step(st, []bool{false, true})
	if math.Abs(sw-s.CInternal) > 1e-12 {
		t.Errorf("discharge event switched %v, want %v", sw, s.CInternal)
	}
	// Apply t=0, b=0: floats, holds: nothing switches.
	sw = s.Step(st, []bool{false, false})
	if sw != 0 {
		t.Errorf("floating hold switched %v", sw)
	}
}

func TestReorderPowerDependsOnOrder(t *testing.T) {
	// One frequently-high input and one rarely-high input: ordering
	// changes internal node churn, so the two orders dissipate
	// differently and Reorder finds the better one.
	r := rand.New(rand.NewSource(5))
	prob := []float64{0.95, 0.05, 0.5}
	vecs := sim.BiasedStimulus(r, 4000, prob)
	s, _ := NewSeriesStack(3)
	natural := s.SimulatePower(vecs)
	best, _, err := s.Reorder(vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if best.Power > natural+1e-12 {
		t.Errorf("reorder found worse power %v than natural %v", best.Power, natural)
	}
	// Exhaustive minimum must beat at least one permutation strictly
	// (otherwise ordering wouldn't matter at all).
	worst := 0.0
	perm := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {0, 2, 1}, {2, 0, 1}, {1, 2, 0}}
	for _, p := range perm {
		trial := &SeriesStack{Order: p, CInternal: s.CInternal, COut: s.COut}
		pw := trial.SimulatePower(vecs)
		if pw > worst {
			worst = pw
		}
	}
	if !(best.Power < worst-1e-9) {
		t.Errorf("ordering made no difference: best %v worst %v", best.Power, worst)
	}
}

func TestReorderDelayPutsLateInputNearOutput(t *testing.T) {
	s, _ := NewSeriesStack(3)
	arrival := []float64{5, 0, 0} // input 0 arrives late
	_, best, err := s.Reorder(sim.Stimulus{}, arrival)
	if err != nil {
		t.Fatal(err)
	}
	if best.Order[0] != 0 {
		t.Errorf("late input should be at position 0 (output end), got order %v", best.Order)
	}
	// Sanity: delay of best <= delay of reversed.
	rev := &SeriesStack{Order: []int{2, 1, 0}, CInternal: s.CInternal, COut: s.COut}
	if best.Delay > rev.Delay(arrival)+1e-12 {
		t.Errorf("best delay %v worse than putting late input at ground %v", best.Delay, rev.Delay(arrival))
	}
}

func TestReorderTooManyInputs(t *testing.T) {
	s, _ := NewSeriesStack(8)
	if _, _, err := s.Reorder(sim.Stimulus{}, nil); err == nil {
		t.Error("8-input exhaustive reorder should be rejected")
	}
}

func TestHeuristicOrderAgreesWithSearchOnPower(t *testing.T) {
	// The heuristic (high-probability inputs near ground) should get close
	// to the exhaustive optimum on strongly biased inputs.
	r := rand.New(rand.NewSource(13))
	prob := []float64{0.98, 0.02, 0.5}
	vecs := sim.BiasedStimulus(r, 6000, prob)
	s, _ := NewSeriesStack(3)
	best, _, err := s.Reorder(vecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := &SeriesStack{Order: HeuristicOrder(prob, nil), CInternal: s.CInternal, COut: s.COut}
	hp := h.SimulatePower(vecs)
	if hp > best.Power*1.15+1e-9 {
		t.Errorf("heuristic power %v too far above optimum %v (order %v)", hp, best.Power, h.Order)
	}
}

func TestSizingReducesPowerAsTargetRelaxes(t *testing.T) {
	nw, err := circuits.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := power.ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	act := probs.Activity

	// Baseline: all gates at max size.
	maxCap, minDelay, err := UniformPower(nw, act, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	prev := maxCap
	prevDelay := minDelay
	for _, slackFactor := range []float64{1.0, 1.2, 1.5, 2.0} {
		res, err := SizeForPower(nw, act, SizingOptions{
			MaxSize: 8, MinSize: 1, WireCap: 0.5,
			DelayTarget: minDelay * slackFactor,
		})
		if err != nil {
			t.Fatalf("factor %v: %v", slackFactor, err)
		}
		if res.Delay > res.DelayTarget+1e-9 {
			t.Errorf("factor %v: delay %v exceeds target %v", slackFactor, res.Delay, res.DelayTarget)
		}
		if res.SwitchedCap > prev+1e-9 {
			t.Errorf("factor %v: power %v did not improve on looser budget (prev %v)",
				slackFactor, res.SwitchedCap, prev)
		}
		prev = res.SwitchedCap
		_ = prevDelay
	}
	// At factor 2 there should be substantial savings vs max sizing.
	if prev > 0.8*maxCap {
		t.Errorf("relaxed sizing saved too little: %v of %v", prev, maxCap)
	}
}

func TestSizingInfeasibleTarget(t *testing.T) {
	nw, err := circuits.RippleAdder(3)
	if err != nil {
		t.Fatal(err)
	}
	probs, _ := power.ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	_, err = SizeForPower(nw, probs.Activity, SizingOptions{DelayTarget: 0.001})
	if err == nil {
		t.Error("impossible delay target should fail")
	}
}

func TestSizingValidation(t *testing.T) {
	nw, _ := circuits.RippleAdder(2)
	probs, _ := power.ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if _, err := SizeForPower(nw, probs.Activity, SizingOptions{MinSize: 4, MaxSize: 2}); err == nil {
		t.Error("MaxSize < MinSize should fail")
	}
}

func TestSizingRespectsBounds(t *testing.T) {
	nw, err := circuits.Comparator(3)
	if err != nil {
		t.Fatal(err)
	}
	probs, _ := power.ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	res, err := SizeForPower(nw, probs.Activity, SizingOptions{
		MaxSize: 4, MinSize: 1, DelayTarget: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range res.Sizes {
		if s < 1-1e-12 || s > 4+1e-12 {
			t.Errorf("gate %d size %v out of bounds", id, s)
		}
	}
}
