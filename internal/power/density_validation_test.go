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

// sparseFlipVectors generates a vector stream where each input independently
// flips with probability q per cycle. Sparse flips (small q) keep
// simultaneous input transitions rare, which is the regime where Najm's
// density propagation is near-exact — the rule sums per-input Boolean
// difference contributions and so double-counts transitions that cancel
// when two inputs switch in the same cycle.
func sparseFlipVectors(r *rand.Rand, n, width int, q float64) [][]bool {
	vecs := make([][]bool, n)
	cur := make([]bool, width)
	for i := range cur {
		cur[i] = r.Intn(2) == 1
	}
	for t := 0; t < n; t++ {
		v := make([]bool, width)
		for i := range cur {
			if r.Float64() < q {
				cur[i] = !cur[i]
			}
			v[i] = cur[i]
		}
		vecs[t] = v
	}
	return vecs
}

// measuredInputs derives the per-PI transition density and signal
// probability actually realized by a vector stream, so the propagated
// estimate and the simulation see identical primary-input statistics and
// the comparison isolates the propagation rule itself.
func measuredInputs(nw *logic.Network, vectors [][]bool) (map[logic.NodeID]float64, Probabilities) {
	dens := map[logic.NodeID]float64{}
	prob := Probabilities{}
	pis := nw.PIs()
	for i, pi := range pis {
		flips, ones := 0, 0
		for t, v := range vectors {
			if v[i] {
				ones++
			}
			if t > 0 && v[i] != vectors[t-1][i] {
				flips++
			}
		}
		dens[pi] = float64(flips) / float64(len(vectors)-1)
		prob[pi] = float64(ones) / float64(len(vectors))
	}
	return dens, prob
}

// On a parity (XOR) tree driven by sparse, mostly non-simultaneous input
// flips, propagated transition densities must match simulated per-node
// activity within a modest tolerance: every Boolean difference of an XOR is
// the constant-1 function, so D(y) = Σ D(xi) exactly, and unit-delay
// simulation produces no glitches when at most one input flips per cycle.
func TestDensityMatchesSimulatedActivityOnParityTree(t *testing.T) {
	nw, err := circuits.ParityTree(16)
	if err != nil {
		t.Fatal(err)
	}
	const cycles, q = 20000, 0.005
	r := rand.New(rand.NewSource(7))
	vectors := sparseFlipVectors(r, cycles, len(nw.PIs()), q)
	inDens, inProb := measuredInputs(nw, vectors)

	dens, err := TransitionDensities(context.Background(), nw, inDens, inProb, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(mustPack(t, vectors)); err != nil {
		t.Fatal(err)
	}

	const relTol = 0.12
	checked := 0
	for id := logic.NodeID(0); id < logic.NodeID(nw.NumNodes()); id++ {
		n := nw.Node(id)
		if n == nil || !n.Type.IsGate() {
			continue
		}
		want := dens[id]
		got := s.Activity(id)
		if want < 0.01 {
			continue // below measurable rate at this cycle count
		}
		if rel := math.Abs(got-want) / want; rel > relTol {
			t.Errorf("%s: simulated activity %.4f vs predicted density %.4f (rel err %.1f%%)",
				n.Name, got, want, 100*rel)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d gates checked — parity tree should have ~15 XORs", checked)
	}
}

// On a reconvergent circuit under dense random stimulus, the propagation
// rule overestimates (simultaneous input switching makes contributions
// cancel that the sum cannot see), so densities must upper-bound the
// zero-delay useful activity on every node. The margin absorbs
// finite-sample noise of the 4000-cycle measurement, not model error.
func TestDensityUpperBoundsUsefulActivityOnRippleAdder(t *testing.T) {
	nw, err := circuits.RippleAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 4000
	r := rand.New(rand.NewSource(11))
	vectors := sim.RandomVectors(r, cycles, len(nw.PIs()), 0.5)
	inDens, inProb := measuredInputs(nw, vectors)

	dens, err := TransitionDensities(context.Background(), nw, inDens, inProb, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(mustPack(t, vectors)); err != nil {
		t.Fatal(err)
	}

	const margin = 0.05
	violations, checked := 0, 0
	for id := logic.NodeID(0); id < logic.NodeID(nw.NumNodes()); id++ {
		n := nw.Node(id)
		if n == nil || !n.Type.IsGate() {
			continue
		}
		checked++
		useful := float64(s.UsefulTransitions(id)) / float64(s.Cycles())
		if useful > dens[id]+margin {
			violations++
			t.Errorf("%s: useful activity %.4f exceeds predicted density %.4f",
				n.Name, useful, dens[id])
		}
	}
	if checked == 0 {
		t.Fatal("no gates checked")
	}
	if violations > 0 {
		t.Logf("%d/%d nodes violated the density upper bound", violations, checked)
	}
}

// The simulator accessors feeding the profiler must agree with the
// normalized activity value: Transitions/cycles == Activity.
func TestSimulatorTransitionAccessorsConsistent(t *testing.T) {
	nw, err := circuits.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	vectors := sim.RandomVectors(r, 500, len(nw.PIs()), 0.5)
	s, err := sim.New(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(mustPack(t, vectors)); err != nil {
		t.Fatal(err)
	}
	cycles := float64(s.Cycles())
	for id := logic.NodeID(0); id < logic.NodeID(nw.NumNodes()); id++ {
		if nw.Node(id) == nil {
			continue
		}
		if got, want := s.Activity(id), float64(s.Transitions(id))/cycles; math.Abs(got-want) > 1e-12 {
			t.Errorf("node %d: Activity %.6f != Transitions/cycles %.6f", id, got, want)
		}
	}
}
