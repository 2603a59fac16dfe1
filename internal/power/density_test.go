package power

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/sim"
)

func TestTransitionDensityXOR(t *testing.T) {
	// For y = a XOR b, P(∂y/∂a) = P(∂y/∂b) = 1, so D(y) = D(a)+D(b).
	nw := logic.New("x")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	y := nw.MustGate("y", logic.Xor, a, b)
	if err := nw.MarkOutput(y); err != nil {
		t.Fatal(err)
	}
	dens, err := TransitionDensities(context.Background(), nw, map[logic.NodeID]float64{a: 0.3, b: 0.2}, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dens[y]-0.5) > 1e-12 {
		t.Errorf("D(xor) = %v, want 0.5", dens[y])
	}
}

func TestTransitionDensityAND(t *testing.T) {
	// y = a AND b: P(∂y/∂a) = P(b) = 0.5; D(y) = 0.5 D(a) + 0.5 D(b).
	nw := logic.New("a")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	y := nw.MustGate("y", logic.And, a, b)
	if err := nw.MarkOutput(y); err != nil {
		t.Fatal(err)
	}
	dens, err := TransitionDensities(context.Background(), nw, map[logic.NodeID]float64{a: 0.4, b: 0.8}, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dens[y]-0.6) > 1e-12 {
		t.Errorf("D(and) = %v, want 0.6", dens[y])
	}
	// With biased probabilities: P(b)=0.9, P(a)=0.1.
	dens, err = TransitionDensities(context.Background(), nw,
		map[logic.NodeID]float64{a: 0.4, b: 0.8},
		Probabilities{a: 0.1, b: 0.9}, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9*0.4 + 0.1*0.8
	if math.Abs(dens[y]-want) > 1e-12 {
		t.Errorf("biased D(and) = %v, want %v", dens[y], want)
	}
}

func TestDensityUpperBoundsZeroDelayOnTrees(t *testing.T) {
	// On fanout-free trees the density estimate is exact for transition
	// counts under independence and matches 2p(1-p) sources propagated;
	// it must be at least the zero-delay pair activity everywhere.
	nw, err := circuits.ParityTree(8)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	inputDens := map[logic.NodeID]float64{}
	for _, pi := range nw.PIs() {
		inputDens[pi] = 0.5
	}
	dens, err := TransitionDensities(context.Background(), nw, inputDens, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range nw.Gates() {
		zeroDelay := probs.Activity(id)
		if dens[id] < zeroDelay-1e-9 {
			t.Errorf("node %d: density %v below zero-delay activity %v", id, dens[id], zeroDelay)
		}
	}
}

func TestDensityTracksGlitchesOnChain(t *testing.T) {
	// On the unbalanced parity chain, simulated (glitchy) activity exceeds
	// zero-delay activity; the density estimate should land above
	// zero-delay, toward the simulation, for the deep nodes.
	nw, err := circuits.ParityChain(10)
	if err != nil {
		t.Fatal(err)
	}
	inputDens := map[logic.NodeID]float64{}
	for _, pi := range nw.PIs() {
		inputDens[pi] = 0.5
	}
	dens, err := TransitionDensities(context.Background(), nw, inputDens, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	probs, err := ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(nw)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	if _, err := s.Run(sim.RandomStimulus(r, 4000, 10, 0.5)); err != nil {
		t.Fatal(err)
	}
	deep := nw.POs()[0]
	zd := probs.Activity(deep)
	measured := s.Activity(deep)
	estimated := dens[deep]
	if !(estimated > zd) {
		t.Errorf("density %v should exceed zero-delay %v at the deep node", estimated, zd)
	}
	// Density propagation ignores simultaneous-edge cancellation, so it is
	// the standard conservative estimate: zero-delay <= measured <=
	// density at the glitchy deep node.
	if !(zd < measured && measured < estimated+1e-9) {
		t.Errorf("expected zero-delay %v <= measured %v <= density %v", zd, measured, estimated)
	}
	// For a parity chain the density estimate equals the summed input
	// densities (every Boolean difference is 1).
	if math.Abs(estimated-5.0) > 1e-9 {
		t.Errorf("parity-chain density = %v, want 5.0", estimated)
	}
}

func TestDensityMethodReport(t *testing.T) {
	nw, err := circuits.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Estimate(context.Background(), nw, Spec{Method: MethodExact, Params: DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	denseRep, err := Estimate(context.Background(), nw, Spec{Method: MethodDensity, Params: DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	if denseRep.Total() < exact.Total()-1e-9 {
		t.Errorf("density estimate %v should not be below zero-delay %v", denseRep.Total(), exact.Total())
	}
}
