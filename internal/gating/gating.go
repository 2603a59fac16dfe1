// Package gating implements gated clocks (survey §III.C.3): detecting
// cycles in which registers need not load and shutting their clocks off.
// The FSM transformation follows Benini and De Micheli [4]: synthesize an
// activation function that is false exactly on the self-loop edges of the
// state transition graph, and gate the state register with it. Savings are
// accounted explicitly: the clock line into each flip-flop is the one net
// guaranteed to switch every cycle in an ungated design, so stopping it
// for idle registers removes clockCap·Vdd²·f per gated cycle, at the cost
// of the activation logic and the gating latch.
package gating

import (
	"fmt"
	"math/rand"

	"repro/internal/encode"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sop"
	"repro/internal/stg"
)

// Gated is a synthesized FSM whose state register is clock-gated on
// self-loops.
type Gated struct {
	Network *logic.Network
	// Enable is the activation-function node: false in a cycle means the
	// state register's clock is stopped (the registers hold via
	// recirculation in this model, which is functionally identical).
	Enable logic.NodeID
	// GatingGates is the number of gates added for the activation function
	// and hold muxes (the overhead the survey warns about).
	GatingGates int
	// HoldMuxes lists the recirculation-mux nodes. They exist so that the
	// gated network simulates correctly with an always-running clock; real
	// clock gating stops the clock instead (one latch+AND cell for the
	// whole register bank), so power accounting excludes them and charges
	// a gating-cell term instead.
	HoldMuxes map[logic.NodeID]bool
}

// GateSelfLoops synthesizes the machine under the encoding and adds
// self-loop clock gating. The returned network is functionally identical
// to encode.Synthesize(g, e); the Enable node reports when the clock
// would actually tick.
func GateSelfLoops(g *stg.STG, e encode.Encoding) (*Gated, error) {
	nw, err := encode.Synthesize(g, e)
	if err != nil {
		return nil, err
	}
	before := nw.NumGates()

	// Activation function: EN = NOT(OR of self-loop edge cubes) over
	// (inputs, state bits).
	nVars := g.NumInputs + e.Bits
	selfLoop := sop.NewCover(nVars)
	for _, ed := range g.Edges {
		if ed.From == ed.To {
			selfLoop.Cubes = append(selfLoop.Cubes, encode.EdgeCube(g, e, ed))
		}
	}
	minLoop, err := sop.Minimize(selfLoop, sop.MinimizeOptions{})
	if err != nil {
		return nil, err
	}
	vars := make([]logic.NodeID, nVars)
	for i := 0; i < g.NumInputs; i++ {
		id := nw.ByName(fmt.Sprintf("x%d", i))
		if id == logic.InvalidNode {
			return nil, fmt.Errorf("gating: input x%d missing from synthesized FSM", i)
		}
		vars[i] = id
	}
	for b := 0; b < e.Bits; b++ {
		id := nw.ByName(fmt.Sprintf("q%d", b))
		if id == logic.InvalidNode {
			return nil, fmt.Errorf("gating: state bit q%d missing from synthesized FSM", b)
		}
		vars[g.NumInputs+b] = id
	}
	loopNode, err := sop.SynthesizeCover(nw, "selfloop", minLoop, vars)
	if err != nil {
		return nil, err
	}
	en, err := nw.AddGate("gate_en", logic.Not, loopNode)
	if err != nil {
		return nil, err
	}

	// Hold muxes: D' = EN ? D : Q. Functionally a no-op on self-loops (the
	// next state equals the current state there), so equivalence is
	// preserved; the mux stands in for the stopped clock.
	muxes := make(map[logic.NodeID]bool)
	for b := 0; b < e.Bits; b++ {
		ff := nw.ByName(fmt.Sprintf("q%d", b))
		d := nw.Node(ff).Fanin[0]
		t1, err := nw.AddGate(fmt.Sprintf("gm%d_a", b), logic.And, en, d)
		if err != nil {
			return nil, err
		}
		nen, err := nw.Inverter(en)
		if err != nil {
			return nil, err
		}
		t0, err := nw.AddGate(fmt.Sprintf("gm%d_b", b), logic.And, nen, ff)
		if err != nil {
			return nil, err
		}
		mux, err := nw.AddGate(fmt.Sprintf("gm%d", b), logic.Or, t1, t0)
		if err != nil {
			return nil, err
		}
		if err := nw.ReplaceFanin(ff, d, mux); err != nil {
			return nil, err
		}
		muxes[t0] = true
		muxes[t1] = true
		muxes[mux] = true
	}
	return &Gated{Network: nw, Enable: en, GatingGates: nw.NumGates() - before, HoldMuxes: muxes}, nil
}

// ClockReport accounts for clock-tree power at the registers, the term
// omitted by combinational estimators.
type ClockReport struct {
	Cycles         int
	FFs            int
	ActiveCycles   int // cycles in which the (gated) clock ticked
	ClockPower     float64
	LogicPower     float64
	EnableFraction float64
}

// Total is clock plus logic power.
func (c ClockReport) Total() float64 { return c.ClockPower + c.LogicPower }

// MeasureClockPower simulates the network over random input vectors and
// returns combined logic + clock power. Input i is 1 with probability
// piProb[i], or 0.5 for every input when piProb is nil (a rarely-asserted
// load line is a biased input). If enable is a valid node, the clock to
// all flip-flops ticks only on cycles where it evaluates true before the
// edge (self-loop gating), one always-clocked gating cell is charged, and
// the nodes in excluded (the functional hold muxes) are omitted from logic
// power since real gating stops the clock instead of recirculating data.
// clockCapPerFF is the clock-node capacitance per register.
func MeasureClockPower(nw *logic.Network, enable logic.NodeID, excluded map[logic.NodeID]bool, r *rand.Rand, cycles int, p power.Params, clockCapPerFF float64, piProb []float64) (ClockReport, error) {
	if piProb == nil {
		piProb = make([]float64, len(nw.PIs()))
		for i := range piProb {
			piProb[i] = 0.5
		}
	}
	rep := ClockReport{Cycles: cycles, FFs: len(nw.FFs())}
	s, err := sim.MeasureSequential(nw, sim.BiasedStimulus(r, cycles, piProb), func(val []bool) {
		if enable == logic.InvalidNode || val[enable] {
			rep.ActiveCycles++
		}
	})
	if err != nil {
		return rep, err
	}
	rep.EnableFraction = sim.Fraction(rep.ActiveCycles, cycles)
	act := func(id logic.NodeID) float64 {
		if excluded[id] {
			return 0
		}
		return s.Activity(id)
	}
	logicRep := power.Evaluate(nw, p, nil, act)
	rep.LogicPower = logicRep.Total()
	// Clock power: the clock net switches at each register on active
	// cycles; a gated design also pays one always-clocked gating cell for
	// the register bank.
	rep.ClockPower = clockCapPerFF * float64(rep.FFs) * p.Vdd * p.Vdd * p.Freq * rep.EnableFraction
	if enable != logic.InvalidNode {
		rep.ClockPower += 1.0 * p.Vdd * p.Vdd * p.Freq
	}
	return rep, nil
}
