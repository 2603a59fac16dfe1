// Package xsistor models circuit-level optimizations from §II of the
// survey: transistor reordering within complex CMOS gates (Prasad/Roy [32],
// Tan/Allen [42]) and slack-driven transistor sizing under a delay
// constraint ([42], Bahar et al. [3]).
//
// The reordering model follows the standard series-stack analysis: in the
// N-network of a CMOS gate, the internal nodes between series transistors
// carry parasitic capacitance. Which internal nodes charge and discharge
// depends on the input ordering, so both the power dissipated in the stack
// and the gate's effective delay (late inputs should be placed near the
// output) are functions of the permutation.
package xsistor

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// SeriesStack models the N-type series stack of a CMOS NAND-style gate
// with k inputs. Position 0 is adjacent to the gate output; position k-1
// is adjacent to ground. Internal node i sits between transistor i and
// transistor i+1 (there are k-1 internal nodes).
type SeriesStack struct {
	// Order[i] is the input index driving the transistor at position i.
	Order []int
	// CInternal is the parasitic capacitance of each internal node.
	CInternal float64
	// COut is the gate output capacitance.
	COut float64
}

// NewSeriesStack builds a stack over k inputs in natural order.
func NewSeriesStack(k int) (*SeriesStack, error) {
	if k < 2 {
		return nil, fmt.Errorf("xsistor: series stack needs >= 2 inputs, got %d", k)
	}
	ord := make([]int, k)
	for i := range ord {
		ord[i] = i
	}
	return &SeriesStack{Order: ord, CInternal: 1.0, COut: float64(k)}, nil
}

// StackState tracks the charge state of the output and internal nodes
// across cycles.
type StackState struct {
	out      bool // output node voltage is high
	internal []bool
}

// NewState returns the reset state (all nodes discharged, output high —
// the NAND of all-zero inputs).
func (s *SeriesStack) NewState() *StackState {
	return &StackState{out: true, internal: make([]bool, len(s.Order)-1)}
}

// Step applies one input vector (indexed by input index, not position) and
// returns the switched capacitance this cycle: the sum of C·(number of
// charging transitions) over the output and internal nodes, counting both
// edges (charge + discharge each contribute one transition of that node).
//
// Electrical model: the output node is driven high by the P-network unless
// all N transistors conduct. An internal node is connected to ground when
// every transistor below it conducts; it is connected to the output node
// when every transistor above it conducts; otherwise it floats and holds
// its charge.
//
// Both conditions follow from the first and last non-conducting
// positions, found in one pass: internal node i (between positions i and
// i+1) is grounded when i >= last, tied to the output when i < first, and
// floats in between, so a step is O(k).
func (s *SeriesStack) Step(st *StackState, inputs []bool) float64 {
	k := len(s.Order)
	first, last := k, -1
	for pos, in := range s.Order {
		if !inputs[in] {
			if first == k {
				first = pos
			}
			last = pos
		}
	}
	switched := 0.0
	newOut := last >= 0
	if newOut != st.out {
		switched += s.COut
		st.out = newOut
	}
	for i, v := range st.internal {
		var newV bool
		switch {
		case i >= last:
			newV = false // tied to ground
		case i < first:
			newV = st.out // tied to output
		default:
			newV = v // floating: hold
		}
		if newV != v {
			switched += s.CInternal
			st.internal[i] = newV
		}
	}
	return switched
}

// SimulatePower runs the stack over the stimulus, input j of a vector
// driving input index j, and returns the average switched capacitance
// per cycle.
func (s *SeriesStack) SimulatePower(vectors sim.Stimulus) float64 {
	return s.simulate(decode(vectors), vectors.Len())
}

// decode loads the vectors of a stream into one flat buffer, vector i at
// [i*w, (i+1)*w) for width w, so a search that simulates many orders
// decodes each vector once.
func decode(vectors sim.Stimulus) []bool {
	w := vectors.Width()
	flat := make([]bool, vectors.Len()*w)
	for i := 0; i < vectors.Len(); i++ {
		vectors.Load(i, flat[i*w:(i+1)*w])
	}
	return flat
}

// simulate is SimulatePower over n vectors decoded by decode.
func (s *SeriesStack) simulate(flat []bool, n int) float64 {
	if n == 0 {
		return 0
	}
	w := len(flat) / n
	st := s.NewState()
	total := 0.0
	for in := flat; len(in) > 0; in = in[w:] {
		total += s.Step(st, in[:w])
	}
	return total / float64(n)
}

// Delay returns the gate delay under an Elmore-style model given per-input
// arrival times: when the transistor at position p switches last, the
// discharge path sees the resistance of positions 0..p driving the output
// plus internal capacitance below, so later positions (nearer ground)
// contribute more delay. The survey's rule "late signals near the output"
// falls out of minimizing this.
func (s *SeriesStack) Delay(arrival []float64) float64 {
	k := len(s.Order)
	worst := 0.0
	for pos := 0; pos < k; pos++ {
		// Elmore term: output cap through pos+1 series resistances plus
		// the internal nodes above this transistor.
		d := s.COut*float64(pos+1) + s.CInternal*float64(pos)
		t := arrival[s.Order[pos]] + d
		if t > worst {
			worst = t
		}
	}
	return worst
}

// ReorderResult reports the chosen order and its metrics.
type ReorderResult struct {
	Order []int
	Power float64 // avg switched capacitance per cycle
	Delay float64
}

// Reorder searches input permutations of the stack exhaustively (k <= 7)
// under the given workload and arrival times and returns two winners:
// the order of least power and the order of least delay, each with both
// of its metrics. One search serves both: every permutation is simulated
// once, and among equal values (within 1e-15) the first permutation in
// search order wins. It does not mutate s.
func (s *SeriesStack) Reorder(vectors sim.Stimulus, arrival []float64) (power, delay ReorderResult, err error) {
	k := len(s.Order)
	if k > 7 {
		return power, delay, fmt.Errorf("xsistor: exhaustive reorder limited to 7 inputs, got %d", k)
	}
	if arrival == nil {
		arrival = make([]float64, k)
	}
	power = ReorderResult{Power: math.Inf(1), Delay: math.Inf(1)}
	delay = power
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	trial := &SeriesStack{CInternal: s.CInternal, COut: s.COut}
	flat := decode(vectors)
	var visit func(int)
	visit = func(i int) {
		if i == k {
			trial.Order = perm
			d := trial.Delay(arrival)
			p := trial.simulate(flat, vectors.Len())
			if p < power.Power-1e-15 {
				power = ReorderResult{Order: append([]int(nil), perm...), Power: p, Delay: d}
			}
			if d < delay.Delay-1e-15 {
				delay = ReorderResult{Order: append([]int(nil), perm...), Power: p, Delay: d}
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
	return power, delay, nil
}

// HeuristicOrder applies the survey's rule of thumb without search: sort
// inputs so that high signal-probability inputs sit near ground (keeping
// internal nodes discharged) and, among similar probabilities, late
// arrivals sit near the output.
func HeuristicOrder(prob []float64, arrival []float64) []int {
	k := len(prob)
	ord := make([]int, k)
	for i := range ord {
		ord[i] = i
	}
	// Position 0 = output end. Score: low probability and late arrival go
	// to the output end.
	score := func(i int) float64 {
		a := 0.0
		if arrival != nil {
			a = arrival[i]
		}
		return prob[i] - 0.1*a
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if score(ord[j]) < score(ord[i]) {
				ord[i], ord[j] = ord[j], ord[i]
			}
		}
	}
	return ord
}
