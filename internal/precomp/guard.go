package precomp

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bdd"
	"repro/internal/dontcare"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sop"
)

// GuardedCircuit is the result of guarded evaluation (Tiwari, Malik and
// Ashar [44]): transparent latches on the boundary of a subcircuit, closed
// by a guard condition synthesized from the target node's observability
// don't-cares. When the guard holds — the target cannot influence any
// output — the region's inputs freeze and its logic stops switching.
type GuardedCircuit struct {
	Network *logic.Network
	// Guard is the synthesized shut-off condition: true means the region
	// is frozen this cycle.
	Guard logic.NodeID
	// Region lists the guarded gates (the target's observability-closed
	// fanin cone).
	Region []logic.NodeID
	// HoldMuxes model the transparent latches; exclude them from power
	// accounting as with clock gating.
	HoldMuxes map[logic.NodeID]bool
	// GuardGates counts the gates added for the guard logic.
	GuardGates int
}

// Region computes the set of nodes all of whose output paths pass through
// target: the subcircuit that may safely be frozen when target is
// unobservable. It always contains target.
func Region(nw *logic.Network, target logic.NodeID) map[logic.NodeID]bool {
	in := map[logic.NodeID]bool{target: true}
	// Candidates: transitive fanin gates of target.
	cone := nw.TransitiveFanin(target)
	for {
		changed := false
		for id := range cone {
			n := nw.Node(id)
			if n == nil || !n.Type.IsGate() || in[id] || id == target {
				continue
			}
			if nw.IsPO(id) {
				continue
			}
			ok := true
			for _, c := range n.Fanout() {
				cn := nw.Node(c)
				if cn == nil {
					continue
				}
				if cn.Type == logic.DFF || !in[c] {
					ok = false
					break
				}
			}
			if ok {
				in[id] = true
				changed = true
			}
		}
		if !changed {
			return in
		}
	}
}

// GuardEvaluation rewrites the network in place, guarding the target
// node's observability-closed fanin cone: boundary signals entering the
// region are held (recirculation mux, modeling a transparent latch) while
// the guard condition — the target's global ODC, synthesized through an
// ISOP cover — is true. The network's primary outputs are unchanged for
// every input sequence.
func GuardEvaluation(nw *logic.Network, target logic.NodeID) (*GuardedCircuit, error) {
	n := nw.Node(target)
	if n == nil || !n.Type.IsGate() {
		return nil, fmt.Errorf("precomp: guard target %d is not a gate", target)
	}
	m, odc, vars, err := dontcare.GlobalODC(nw, target)
	if err != nil {
		return nil, err
	}
	if odc == bdd.False {
		return nil, fmt.Errorf("precomp: node %q is always observable; nothing to guard", n.Name)
	}
	cover, err := m.ISOP(odc, odc)
	if err != nil {
		return nil, err
	}
	min, err := sop.Minimize(cover, sop.MinimizeOptions{})
	if err != nil {
		return nil, err
	}
	before := nw.NumGates()
	// The ISOP cover is over all manager variables; the last one is the
	// cut variable z introduced by the ODC computation, which the ODC
	// cannot depend on — but the cover width must match. Extend vars with
	// a dummy mapping to any node; cubes never reference it.
	varNodes := append([]logic.NodeID(nil), vars...)
	for len(varNodes) < min.NumVars {
		varNodes = append(varNodes, vars[0])
		for _, c := range min.Cubes {
			if c[len(varNodes)-1] != sop.Dash {
				return nil, fmt.Errorf("precomp: ODC depends on the cut variable")
			}
		}
	}
	guard, err := sop.SynthesizeCover(nw, n.Name+"_guard", min, varNodes)
	if err != nil {
		return nil, err
	}
	gc := &GuardedCircuit{Network: nw, Guard: guard, HoldMuxes: make(map[logic.NodeID]bool)}

	reg := Region(nw, target)
	for id := range reg {
		gc.Region = append(gc.Region, id)
	}
	sort.Slice(gc.Region, func(i, j int) bool { return gc.Region[i] < gc.Region[j] })

	// Boundary edges: fanins of region nodes that come from outside the
	// region. Each gets a hold mux: when guard=1 the latch recirculates.
	nguard, err := nw.AddGate(n.Name+"_nguard", logic.Not, guard)
	if err != nil {
		return nil, err
	}
	// Latch state: a DFF holding the previous boundary value would change
	// timing; the standard guarded-evaluation latch is transparent, so in
	// the zero-delay functional model we freeze against the value the
	// latch last passed — modeled with a DFF updated only when open.
	// One latch per distinct boundary SOURCE signal, shared by every
	// region consumer — boundary width, not edge count, is what guarded
	// evaluation pays for.
	latchOf := map[logic.NodeID]logic.NodeID{}
	seq := 0
	mkLatch := func(f logic.NodeID) (logic.NodeID, error) {
		if out, ok := latchOf[f]; ok {
			return out, nil
		}
		seq++
		tag := fmt.Sprintf("%s_gl%d", n.Name, seq)
		ph, err := nw.AddConst(tag+"_ph", false)
		if err != nil {
			return logic.InvalidNode, err
		}
		state, err := nw.AddDFF(tag+"_q", ph, false)
		if err != nil {
			return logic.InvalidNode, err
		}
		// latch output: guard ? state : f
		t1, err := nw.AddGate(tag+"_a", logic.And, guard, state)
		if err != nil {
			return logic.InvalidNode, err
		}
		t0, err := nw.AddGate(tag+"_b", logic.And, nguard, f)
		if err != nil {
			return logic.InvalidNode, err
		}
		out, err := nw.AddGate(tag+"_o", logic.Or, t1, t0)
		if err != nil {
			return logic.InvalidNode, err
		}
		// state follows the latch output (holds while guarded).
		if err := nw.ReplaceFanin(state, ph, out); err != nil {
			return logic.InvalidNode, err
		}
		if err := nw.DeleteNode(ph); err != nil {
			return logic.InvalidNode, err
		}
		gc.HoldMuxes[t0] = true
		gc.HoldMuxes[t1] = true
		gc.HoldMuxes[out] = true
		latchOf[f] = out
		return out, nil
	}
	for _, id := range gc.Region {
		node := nw.Node(id)
		for _, f := range append([]logic.NodeID(nil), node.Fanin...) {
			if reg[f] {
				continue
			}
			fn := nw.Node(f)
			if fn == nil || fn.Type == logic.Const0 || fn.Type == logic.Const1 {
				continue
			}
			out, err := mkLatch(f)
			if err != nil {
				return nil, err
			}
			if err := nw.ReplaceFanin(id, f, out); err != nil {
				return nil, err
			}
		}
	}
	gc.GuardGates = nw.NumGates() - before
	return gc, nil
}

// GuardReport compares switching inside the guarded region against the
// unguarded original, both simulated over the same random vectors.
type GuardReport struct {
	Cycles          int
	GuardedFraction float64 // cycles with the guard asserted
	RegionToggles   int64   // region gate toggles in the guarded circuit
	BaselineToggles int64   // same gates' toggles in the original
	Mismatches      int     // output disagreements, per cycle and output (must be 0)
	GuardPower      float64 // total power of the guarded circuit
	BaselinePower   float64
}

// MeasureGuard runs the original and the guarded network, one after the
// other, over the same random vectors and reports region switching,
// output equivalence (every output of every cycle is compared) and power
// (hold muxes excluded; the latch-state DFFs are charged like the latches
// they model).
func MeasureGuard(orig *logic.Network, gc *GuardedCircuit, origRegion []logic.NodeID, r *rand.Rand, cycles int, p power.Params) (GuardReport, error) {
	rep := GuardReport{Cycles: cycles}
	nIn := len(orig.PIs())
	if nIn != len(gc.Network.PIs()) {
		return rep, fmt.Errorf("precomp: input counts differ")
	}
	st := sim.DrawStimulus(cycles, nIn, func(_, _ int) bool { return r.Intn(2) == 1 })
	pos, gpos := orig.POs(), gc.Network.POs()
	var want []bool
	so, err := sim.MeasureSequential(orig, st, func(val []bool) {
		for _, po := range pos {
			want = append(want, val[po])
		}
	})
	if err != nil {
		return rep, err
	}
	guarded := 0
	sg, err := sim.MeasureSequential(gc.Network, st, func(val []bool) {
		for i := range pos {
			if val[gpos[i]] != want[i] {
				rep.Mismatches++
			}
		}
		want = want[len(pos):]
		if val[gc.Guard] {
			guarded++
		}
	})
	if err != nil {
		return rep, err
	}
	rep.GuardedFraction = sim.Fraction(guarded, cycles)
	for _, id := range origRegion {
		rep.BaselineToggles += so.Transitions(id)
	}
	for _, id := range gc.Region {
		rep.RegionToggles += sg.Transitions(id)
	}
	actG := func(id logic.NodeID) float64 {
		if gc.HoldMuxes[id] {
			return 0
		}
		return sg.Activity(id)
	}
	rep.BaselinePower = power.Evaluate(orig, p, nil, so.Activity).Total()
	rep.GuardPower = power.Evaluate(gc.Network, p, nil, actG).Total()
	return rep, nil
}
