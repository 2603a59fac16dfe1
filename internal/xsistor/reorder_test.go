package xsistor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// refStep is the quadratic series-stack step the O(k) Step replaced: it
// materializes the conduction vector and rescans the transistors below
// and above every internal node. It is the oracle for Step.
func refStep(s *SeriesStack, st *StackState, inputs []bool) float64 {
	k := len(s.Order)
	on := make([]bool, k)
	allOn := true
	for pos := 0; pos < k; pos++ {
		on[pos] = inputs[s.Order[pos]]
		if !on[pos] {
			allOn = false
		}
	}
	switched := 0.0
	newOut := !allOn
	if newOut != st.out {
		switched += s.COut
		st.out = newOut
	}
	for i := 0; i < k-1; i++ {
		below := true
		for j := i + 1; j < k; j++ {
			if !on[j] {
				below = false
				break
			}
		}
		above := true
		for j := 0; j <= i; j++ {
			if !on[j] {
				above = false
				break
			}
		}
		var newV bool
		switch {
		case below:
			newV = false
		case above:
			newV = st.out
		default:
			newV = st.internal[i]
		}
		if newV != st.internal[i] {
			switched += s.CInternal
			st.internal[i] = newV
		}
	}
	return switched
}

func refSimulatePower(s *SeriesStack, vectors [][]bool) float64 {
	st := s.NewState()
	total := 0.0
	for _, v := range vectors {
		total += refStep(s, st, v)
	}
	if len(vectors) == 0 {
		return 0
	}
	return total / float64(len(vectors))
}

// refReorder is the per-objective search Reorder replaced: one search
// per objective, simulating every permutation from the unpacked rows.
func refReorder(s *SeriesStack, delayObjective bool, vectors [][]bool, arrival []float64) ReorderResult {
	k := len(s.Order)
	if arrival == nil {
		arrival = make([]float64, k)
	}
	best := ReorderResult{Power: math.Inf(1), Delay: math.Inf(1)}
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	trial := &SeriesStack{CInternal: s.CInternal, COut: s.COut}
	var visit func(int)
	visit = func(i int) {
		if i == k {
			trial.Order = perm
			p := refSimulatePower(trial, vectors)
			d := trial.Delay(arrival)
			better := p < best.Power-1e-15
			if delayObjective {
				better = d < best.Delay-1e-15
			}
			if better {
				best = ReorderResult{Order: append([]int(nil), perm...), Power: p, Delay: d}
			}
			return
		}
		for j := i; j < k; j++ {
			perm[i], perm[j] = perm[j], perm[i]
			visit(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	visit(0)
	return best
}

// oracleStack returns a k-input stack in a random order with
// non-integral capacitances, so a changed summation order would show.
func oracleStack(r *rand.Rand, k int) *SeriesStack {
	return &SeriesStack{Order: r.Perm(k), CInternal: 0.1 + r.Float64(), COut: float64(k) + r.Float64()}
}

func oracleProbs(r *rand.Rand, k int) []float64 {
	p := make([]float64, k)
	for i := range p {
		switch r.Intn(3) {
		case 0:
			p[i] = 0.02 + 0.08*r.Float64() // rarely high
		case 1:
			p[i] = 0.9 + 0.08*r.Float64() // mostly high
		default:
			p[i] = r.Float64()
		}
	}
	return p
}

func TestStepMatchesQuadraticOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for k := 2; k <= 7; k++ {
		for trial := 0; trial < 20; trial++ {
			s := oracleStack(r, k)
			vecs := sim.BiasedStimulus(r, 300, oracleProbs(r, k))
			rows := vecs.Unpack()
			st, ref := s.NewState(), s.NewState()
			for c, v := range rows {
				got, want := s.Step(st, v), refStep(s, ref, v)
				if got != want || !reflect.DeepEqual(st, ref) {
					t.Fatalf("k=%d order %v cycle %d: Step %v state %+v, oracle %v state %+v",
						k, s.Order, c, got, st, want, ref)
				}
			}
			if got, want := s.SimulatePower(vecs), refSimulatePower(s, rows); got != want {
				t.Fatalf("k=%d order %v: SimulatePower %v, oracle %v", k, s.Order, got, want)
			}
		}
	}
}

func TestReorderMatchesSimulateEverythingOracle(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for k := 2; k <= 7; k++ {
		n := 400
		if k == 7 {
			n = 60 // 5040 permutations per search
		}
		for trial := 0; trial < 3; trial++ {
			s := oracleStack(r, k)
			vecs := sim.BiasedStimulus(r, n, oracleProbs(r, k))
			rows := vecs.Unpack()
			// nil arrivals tie every permutation on delay; arrivals drawn
			// from {0, 1, 2} tie some; continuous ones tie only orders
			// that agree on the critical input.
			coarse := make([]float64, k)
			fine := make([]float64, k)
			for i := range coarse {
				coarse[i] = float64(r.Intn(3))
				fine[i] = 4 * r.Float64()
			}
			for ai, arrival := range [][]float64{nil, coarse, fine} {
				gotP, gotD, err := s.Reorder(vecs, arrival)
				if err != nil {
					t.Fatal(err)
				}
				if want := refReorder(s, false, rows, arrival); !reflect.DeepEqual(gotP, want) {
					t.Fatalf("k=%d arrival#%d: power winner %+v, oracle %+v", k, ai, gotP, want)
				}
				if want := refReorder(s, true, rows, arrival); !reflect.DeepEqual(gotD, want) {
					t.Fatalf("k=%d arrival#%d: delay winner %+v, oracle %+v", k, ai, gotD, want)
				}
			}
		}
	}
}

// TestReorderEmptyWorkload covers the degenerate stream: zero power for
// every order, and the delay winner still reports it.
func TestReorderEmptyWorkload(t *testing.T) {
	s, _ := NewSeriesStack(3)
	gotP, gotD, err := s.Reorder(sim.Stimulus{}, []float64{0, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range []ReorderResult{gotP, gotD} {
		if want := refReorder(s, i == 1, nil, []float64{0, 2, 1}); !reflect.DeepEqual(got, want) {
			t.Errorf("winner %d (0 power, 1 delay): %+v, oracle %+v", i, got, want)
		}
	}
}
