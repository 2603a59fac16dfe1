// Package precomp implements precomputation-based power-down (survey
// §III.C.4, Alidina et al. [1], Monteiro et al. [30]): the output of a
// circuit is selectively determined one cycle early from a small subset of
// its inputs, and when it is, the registers feeding the rest of the logic
// are disabled, eliminating their downstream switching.
//
// The package builds the survey's Figure 1 circuit — an n-bit comparator
// whose low-order input registers are load-disabled whenever the inspected
// most-significant bit pairs already decide C > D — generalized to j
// inspected pairs, and provides the BDD-based universal-quantification
// machinery of [30] for choosing which inputs to precompute on in an
// arbitrary combinational circuit.
package precomp

import (
	"fmt"
	"math/rand"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sim"
)

// Comparator is the Figure 1 precomputed comparator.
type Comparator struct {
	Network *logic.Network
	// LE is the load-enable net: true means the low-order registers load.
	LE logic.NodeID
	// AlwaysFFs are the registers for the inspected MSB pairs (always
	// clocked); GatedFFs are the low-order registers clocked only when LE.
	AlwaysFFs, GatedFFs []logic.NodeID
	// HoldMuxes model the disabled load functionally and are excluded from
	// power accounting (the hardware stops the clock instead).
	HoldMuxes map[logic.NodeID]bool
	// Bits is the comparator width; Inspected is the number of MSB pairs
	// the precomputation logic examines.
	Bits, Inspected int
}

// BuildComparator constructs an n-bit registered comparator computing
// C > D with precomputation on the top j bit pairs (j = 0 gives the
// unoptimized baseline of Figure 1(a)). The load enable is
// LE = NOT(OR over inspected pairs i of (c_i XOR d_i)) complemented
// appropriately: the low registers load only when all inspected pairs are
// equal — otherwise the inspected bits alone determine the output.
func BuildComparator(n, j int) (*Comparator, error) {
	if n < 1 {
		return nil, fmt.Errorf("precomp: comparator width %d", n)
	}
	if j < 0 || j > n {
		return nil, fmt.Errorf("precomp: inspect %d of %d bits", j, n)
	}
	nw := logic.New(fmt.Sprintf("pcmp%d_%d", n, j))
	c := make([]logic.NodeID, n)
	d := make([]logic.NodeID, n)
	for i := 0; i < n; i++ {
		var err error
		if c[i], err = nw.AddInput(fmt.Sprintf("c%d", i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		var err error
		if d[i], err = nw.AddInput(fmt.Sprintf("d%d", i)); err != nil {
			return nil, err
		}
	}
	pc := &Comparator{Network: nw, Bits: n, Inspected: j, HoldMuxes: make(map[logic.NodeID]bool), LE: logic.InvalidNode}

	// Precomputation logic on the raw inputs: LE = AND of XNOR(c_i, d_i)
	// over the inspected (top) pairs.
	var le logic.NodeID = logic.InvalidNode
	if j > 0 {
		var eqs []logic.NodeID
		for i := n - j; i < n; i++ {
			eq, err := nw.AddGate(fmt.Sprintf("le_eq%d", i), logic.Xnor, c[i], d[i])
			if err != nil {
				return nil, err
			}
			eqs = append(eqs, eq)
		}
		var err error
		if len(eqs) == 1 {
			le = eqs[0]
		} else {
			le, err = nw.AddGate("le", logic.And, eqs...)
			if err != nil {
				return nil, err
			}
		}
		pc.LE = le
	}

	// Registers: top j pairs always load; lower pairs load when LE.
	regC := make([]logic.NodeID, n)
	regD := make([]logic.NodeID, n)
	mkReg := func(name string, din logic.NodeID, gated bool) (logic.NodeID, error) {
		dEff := din
		if gated && le != logic.InvalidNode {
			ph, err := nw.AddConst("__ph_"+name, false)
			if err != nil {
				return logic.InvalidNode, err
			}
			q, err := nw.AddDFF(name, ph, false)
			if err != nil {
				return logic.InvalidNode, err
			}
			nle, err := nw.Inverter(le)
			if err != nil {
				return logic.InvalidNode, err
			}
			t1, err := nw.AddGate(name+"_ma", logic.And, le, din)
			if err != nil {
				return logic.InvalidNode, err
			}
			t0, err := nw.AddGate(name+"_mb", logic.And, nle, q)
			if err != nil {
				return logic.InvalidNode, err
			}
			mux, err := nw.AddGate(name+"_m", logic.Or, t1, t0)
			if err != nil {
				return logic.InvalidNode, err
			}
			if err := nw.ReplaceFanin(q, ph, mux); err != nil {
				return logic.InvalidNode, err
			}
			if err := nw.DeleteNode(ph); err != nil {
				return logic.InvalidNode, err
			}
			pc.HoldMuxes[t0] = true
			pc.HoldMuxes[t1] = true
			pc.HoldMuxes[mux] = true
			pc.GatedFFs = append(pc.GatedFFs, q)
			return q, nil
		}
		q, err := nw.AddDFF(name, dEff, false)
		if err != nil {
			return logic.InvalidNode, err
		}
		pc.AlwaysFFs = append(pc.AlwaysFFs, q)
		return q, nil
	}
	for i := 0; i < n; i++ {
		gated := i < n-j
		var err error
		if regC[i], err = mkReg(fmt.Sprintf("rc%d", i), c[i], gated); err != nil {
			return nil, err
		}
		if regD[i], err = mkReg(fmt.Sprintf("rd%d", i), d[i], gated); err != nil {
			return nil, err
		}
	}

	// Output logic A: MSB-first magnitude comparator over the registers.
	var acc logic.NodeID
	for i := 0; i < n; i++ {
		nd, err := nw.AddGate(fmt.Sprintf("a_nd%d", i), logic.Not, regD[i])
		if err != nil {
			return nil, err
		}
		gt, err := nw.AddGate(fmt.Sprintf("a_gt%d", i), logic.And, regC[i], nd)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			acc = gt
			continue
		}
		eq, err := nw.AddGate(fmt.Sprintf("a_eq%d", i), logic.Xnor, regC[i], regD[i])
		if err != nil {
			return nil, err
		}
		keep, err := nw.AddGate(fmt.Sprintf("a_kp%d", i), logic.And, eq, acc)
		if err != nil {
			return nil, err
		}
		if acc, err = nw.AddGate(fmt.Sprintf("a_acc%d", i), logic.Or, gt, keep); err != nil {
			return nil, err
		}
	}
	if err := nw.MarkOutput(acc); err != nil {
		return nil, err
	}
	return pc, nil
}

// Report is the power accounting of one simulated run.
type Report struct {
	Cycles         int
	LoadFraction   float64 // fraction of cycles the gated registers loaded
	LogicPower     float64
	ClockPower     float64
	OutputMismatch int // cycles where the output differed from the golden model (must be 0)
}

// Total is logic plus clock power.
func (r Report) Total() float64 { return r.LogicPower + r.ClockPower }

// Measure simulates the precomputed comparator against a golden reference
// (the j = 0 baseline semantics) over random vectors with per-bit one
// probability pOne, and returns the power accounting. Clock power charges
// clockCap per always-on FF per cycle and per gated FF only on load
// cycles; hold muxes are excluded from logic power.
func (pc *Comparator) Measure(r *rand.Rand, cycles int, p power.Params, clockCap, pOne float64) (Report, error) {
	nw := pc.Network
	n := pc.Bits
	rep := Report{Cycles: cycles}
	st := sim.RandomStimulus(r, cycles, 2*n, pOne)
	po := nw.POs()[0]
	loads, cyc := 0, 0
	prev := make([]bool, 2*n)
	// Golden model: registered comparator — output at cycle t reflects the
	// inputs of cycle t-1. LE is observed before the clock edge.
	s, err := sim.MeasureSequential(nw, st, func(val []bool) {
		if pc.LE == logic.InvalidNode || val[pc.LE] {
			loads++
		}
		if cyc > 0 {
			st.Load(cyc-1, prev)
			if val[po] != (sim.BitsToUint(prev[:n]) > sim.BitsToUint(prev[n:])) {
				rep.OutputMismatch++
			}
		}
		cyc++
	})
	if err != nil {
		return rep, err
	}
	rep.LoadFraction = sim.Fraction(loads, cycles)
	act := func(id logic.NodeID) float64 {
		if pc.HoldMuxes[id] {
			return 0
		}
		return s.Activity(id)
	}
	logicRep := power.Evaluate(nw, p, nil, act)
	rep.LogicPower = logicRep.Total()
	rep.ClockPower = clockCap * p.Vdd * p.Vdd * p.Freq *
		(float64(len(pc.AlwaysFFs)) + float64(len(pc.GatedFFs))*rep.LoadFraction)
	if pc.LE != logic.InvalidNode {
		rep.ClockPower += 1.0 * p.Vdd * p.Vdd * p.Freq // gating cell
	}
	return rep, nil
}

// SelectInputs implements the subset-selection core of [30] for a
// combinational network with one marked output: it searches all input
// subsets of size k and returns the one maximizing the probability that
// the output is determined by those inputs alone,
// P(∀others f) + P(∀others !f), computed exactly with BDDs.
func SelectInputs(nw *logic.Network, k int) ([]logic.NodeID, float64, error) {
	if len(nw.POs()) != 1 {
		return nil, 0, fmt.Errorf("precomp: SelectInputs needs exactly one output, have %d", len(nw.POs()))
	}
	pis := nw.PIs()
	if k < 1 || k >= len(pis) {
		return nil, 0, fmt.Errorf("precomp: subset size %d of %d inputs", k, len(pis))
	}
	nb, err := bdd.FromNetwork(nw)
	if err != nil {
		return nil, 0, err
	}
	f := nb.Fn[nw.POs()[0]]
	m := nb.M

	var best []int
	bestProb := -1.0
	subset := make([]int, k)
	var visit func(start, idx int)
	visit = func(start, idx int) {
		if idx == k {
			// Quantify out everything not in the subset.
			inSet := make(map[int]bool, k)
			for _, v := range subset {
				inSet[v] = true
			}
			var others []int
			for v := 0; v < len(pis); v++ {
				if !inSet[v] {
					others = append(others, v)
				}
			}
			g1 := m.ForallSet(f, others)
			g0 := m.ForallSet(m.Not(f), others)
			prob := m.Probability(g1, nil) + m.Probability(g0, nil)
			if prob > bestProb {
				bestProb = prob
				best = append([]int(nil), subset...)
			}
			return
		}
		for v := start; v < len(pis); v++ {
			subset[idx] = v
			visit(v+1, idx+1)
		}
	}
	visit(0, 0)
	out := make([]logic.NodeID, k)
	for i, v := range best {
		out[i] = pis[v]
	}
	return out, bestProb, nil
}
