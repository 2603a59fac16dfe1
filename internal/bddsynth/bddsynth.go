// Package bddsynth implements BDD-derived low-power synthesis in the
// direction of Popel: build the global BDDs of a combinational network,
// sift the variable order of the output functions, then map the (small,
// well-ordered) BDD directly to a 2:1-MUX netlist — each internal node
// becomes one MUX selected by its variable — and keep the rewrite only
// if the estimated switching activity improves. The variable order found
// by sifting is what makes the mapping competitive: it simultaneously
// minimizes node count and, through it, the amount of multiplexer
// hardware that can toggle.
//
// Synthesize builds once from the depth-first order (Malik et al.),
// which leaves sifting little to do, without reordering. A build that
// stays below the dynamic-reordering trigger is emitted as built. A build
// that reaches the trigger is sifted once with only the primary-output
// drivers pinned, since the emission reads nothing else. A build that
// trips the budget falls back to a build under dynamic sifting
// reordering, which pins every gate's function. Apply takes any prebuilt
// BDDs of the network: it emits them into a clone to score the candidate
// and, when the rewrite is accepted, into the live network. Experiment
// E18 builds from the declaration order under dynamic reordering instead
// and calls Apply on that build.
package bddsynth

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/power"
)

// Options configures Synthesize and Apply. The zero value uses a
// 1M-node BDD budget, sifting reordering, 1995 default power parameters,
// uniform input probabilities, and applies the rewrite only when the
// estimated power improves.
type Options struct {
	// Budget bounds Synthesize's BDD build; a trip makes Synthesize a
	// skipped no-op, never an error. Zero means 1<<20 nodes. Apply, which
	// builds nothing, ignores it.
	Budget bdd.Budget
	// KeepWorse applies the MUX netlist even when its estimated power is
	// not an improvement (used by experiments to measure the raw cost).
	KeepWorse bool
	// InputProb, Params and CapModel feed the propagated-probability
	// scoring estimate. Zero values mean uniform 0.5 inputs and
	// power.DefaultParams.
	InputProb power.Probabilities
	Params    power.Params
	CapModel  power.CapModel
}

// Result reports what Synthesize or Apply did.
type Result struct {
	Skipped  bool    // nothing was attempted (sequential, budget trip, ...)
	Reason   string  // why, when Skipped
	Applied  bool    // the MUX netlist was spliced into the network
	BDDNodes int     // live internal nodes of the build: the outputs' alone after an output sift, every gate's otherwise
	MuxGates int     // gates emitted for the MUX netlist
	Before   float64 // estimated switching power before
	After    float64 // estimated switching power of the MUX candidate
	Order    []int   // variable order the build settled on
}

// Synthesize rewrites the combinational network as a BDD-derived MUX
// netlist when that lowers the propagated-probability power estimate.
// Sequential networks and budget-tripping builds are skipped, not
// failed, so the transform is safe inside any flow. The BDDs are built
// once from the depth-first order without reordering; a build that trips
// the budget is retried once under dynamic sifting (bdd.FromNetworkRetry).
// A build that did not trip but reached the dynamic-reordering trigger is
// sifted once with only the primary-output drivers pinned
// (NetworkBDDs.SiftOutputs). The build is then passed to Apply.
func Synthesize(ctx context.Context, nw *logic.Network, opt Options) (*Result, error) {
	if len(nw.FFs()) > 0 {
		return &Result{Skipped: true, Reason: "sequential network"}, nil
	}
	if len(nw.POs()) == 0 || nw.NumGates() == 0 {
		return &Result{Skipped: true, Reason: "nothing to synthesize"}, nil
	}
	if opt.Budget == (bdd.Budget{}) {
		opt.Budget = bdd.Budget{MaxNodes: 1 << 20}
	}
	nb, retried, err := bdd.FromNetworkRetry(ctx, nw, opt.Budget)
	if err == nil && !retried {
		_, err = nb.SiftOutputs(nw.POs())
	}
	if err != nil {
		if errors.Is(err, bdd.ErrBudgetExceeded) {
			return &Result{Skipped: true, Reason: "BDD budget exceeded: " + err.Error()}, nil
		}
		return nil, err
	}
	return Apply(ctx, nw, nb, opt)
}

// Apply emits nb's MUX mapping into a clone of nw, scores it against nw
// and, when the candidate's estimated power is lower (or opt.KeepWorse is
// set), emits it again into nw. nb must hold the BDDs of nw's outputs,
// built from nw or from a network nw was cloned from: the clone keeps
// nw's NodeIDs, so nb's functions and select variables name the same
// nodes in both. Emission only reads nb's structure, so an applied nw
// ends up identical to the scored clone.
func Apply(ctx context.Context, nw *logic.Network, nb *bdd.NetworkBDDs, opt Options) (*Result, error) {
	if opt.Params == (power.Params{}) {
		opt.Params = power.DefaultParams()
	}
	score := power.Spec{Method: power.MethodPropagated, Params: opt.Params, CapModel: opt.CapModel, InputProb: opt.InputProb}
	before, err := power.Estimate(ctx, nw, score)
	if err != nil {
		return nil, fmt.Errorf("bddsynth: scoring input network: %w", err)
	}
	clone := nw.Clone()
	muxGates, err := emitMux(clone, nb)
	if err != nil {
		return nil, err
	}
	after, err := power.Estimate(ctx, clone, score)
	if err != nil {
		return nil, fmt.Errorf("bddsynth: scoring candidate: %w", err)
	}
	res := &Result{
		BDDNodes: nb.M.Size() - 2,
		MuxGates: muxGates,
		Before:   before.Total(),
		After:    after.Total(),
		Order:    nb.M.Order(),
	}
	if !opt.KeepWorse && res.After >= res.Before {
		return res, nil
	}
	// Accepted: the pass rewrites nw in place, so replay the emission
	// into it through the mutation APIs.
	if _, err := emitMux(nw, nb); err != nil {
		return nil, fmt.Errorf("bddsynth: applying accepted rewrite: %w", err)
	}
	res.Applied = true
	return res, nil
}

// emitMux splices the MUX mapping of nb into nw in place and returns the
// number of gates it added: fresh gates are emitted bottom-up, each
// primary-output driver is redirected to its MUX root, and the displaced
// logic is swept. nb must be built from nw, or from a network nw was
// cloned from; its sifted variable order, wherever the build started,
// fixes the MUX netlist. Emission only reads nb, so one build can be
// emitted more than once.
func emitMux(nw *logic.Network, nb *bdd.NetworkBDDs) (int, error) {
	e := &emitter{
		nw: nw, nb: nb,
		memo:   make(map[bdd.Ref]logic.NodeID),
		notSel: make(map[int]logic.NodeID),
		c0:     logic.InvalidNode,
		c1:     logic.InvalidNode,
	}

	// Map each distinct PO driver once, then redirect.
	newDriver := make(map[logic.NodeID]logic.NodeID)
	for _, old := range nw.POs() {
		if _, done := newDriver[old]; done {
			continue
		}
		f, ok := nb.Fn[old]
		if !ok {
			return 0, fmt.Errorf("bddsynth: no BDD for PO driver %d", old)
		}
		nd, err := e.emit(f)
		if err != nil {
			return 0, err
		}
		newDriver[old] = nd
	}
	// Deterministic redirect order: follow the PO list. ReplaceNode
	// rewrites nw's own output list, so walk a copy: a driver shared by
	// two outputs must still read as the old driver at its second entry.
	for _, old := range slices.Clone(nw.POs()) {
		nd, ok := newDriver[old]
		if !ok || nd == old {
			continue
		}
		delete(newDriver, old)
		if err := nw.ReplaceNode(old, nd); err != nil {
			return 0, fmt.Errorf("bddsynth: redirecting PO driver %d: %w", old, err)
		}
	}
	nw.SweepDead()
	return e.emitted, nil
}

// emitter maps BDD nodes to MUX gates, sharing subgraphs through the
// memo (the BDD's sharing carries straight over to the netlist) and one
// inverted select line per variable.
type emitter struct {
	nw      *logic.Network
	nb      *bdd.NetworkBDDs
	memo    map[bdd.Ref]logic.NodeID
	notSel  map[int]logic.NodeID
	c0, c1  logic.NodeID // lazily created constant nodes
	emitted int          // gates added by this emitter
}

func (e *emitter) constant(val bool) (logic.NodeID, error) {
	if val {
		if e.c1 == logic.InvalidNode {
			id, err := e.nw.AddConst("", true)
			if err != nil {
				return logic.InvalidNode, err
			}
			e.c1 = id
		}
		return e.c1, nil
	}
	if e.c0 == logic.InvalidNode {
		id, err := e.nw.AddConst("", false)
		if err != nil {
			return logic.InvalidNode, err
		}
		e.c0 = id
	}
	return e.c0, nil
}

// gate adds one auto-named gate and counts it.
func (e *emitter) gate(t logic.GateType, fanin ...logic.NodeID) (logic.NodeID, error) {
	id, err := e.nw.AddGate("", t, fanin...)
	if err == nil {
		e.emitted++
	}
	return id, err
}

func (e *emitter) not(sel logic.NodeID, v int) (logic.NodeID, error) {
	if id, ok := e.notSel[v]; ok {
		return id, nil
	}
	id, err := e.gate(logic.Not, sel)
	if err != nil {
		return logic.InvalidNode, err
	}
	e.notSel[v] = id
	return id, nil
}

// emit lowers one BDD function to gates and returns the driving node.
func (e *emitter) emit(f bdd.Ref) (logic.NodeID, error) {
	switch f {
	case bdd.False:
		return e.constant(false)
	case bdd.True:
		return e.constant(true)
	}
	if id, ok := e.memo[f]; ok {
		return id, nil
	}
	m := e.nb.M
	v := m.Level(f)
	sel := e.nb.Vars[v]
	lo, hi := m.Low(f), m.High(f)

	var id logic.NodeID
	var err error
	switch {
	case lo == bdd.False && hi == bdd.True:
		id = sel // the function IS the select variable
	case lo == bdd.True && hi == bdd.False:
		id, err = e.not(sel, v)
	case hi == bdd.True:
		// sel ? 1 : lo  ==  sel | lo
		var ln logic.NodeID
		if ln, err = e.emit(lo); err == nil {
			id, err = e.gate(logic.Or, sel, ln)
		}
	case hi == bdd.False:
		// sel ? 0 : lo  ==  !sel & lo
		var ln, ns logic.NodeID
		if ln, err = e.emit(lo); err == nil {
			if ns, err = e.not(sel, v); err == nil {
				id, err = e.gate(logic.And, ns, ln)
			}
		}
	case lo == bdd.False:
		// sel ? hi : 0  ==  sel & hi
		var hn logic.NodeID
		if hn, err = e.emit(hi); err == nil {
			id, err = e.gate(logic.And, sel, hn)
		}
	case lo == bdd.True:
		// sel ? hi : 1  ==  !sel | hi
		var hn, ns logic.NodeID
		if hn, err = e.emit(hi); err == nil {
			if ns, err = e.not(sel, v); err == nil {
				id, err = e.gate(logic.Or, ns, hn)
			}
		}
	default:
		// Full 2:1 MUX: (!sel & lo) | (sel & hi).
		var ln, hn, ns, a, b logic.NodeID
		if ln, err = e.emit(lo); err != nil {
			break
		}
		if hn, err = e.emit(hi); err != nil {
			break
		}
		if ns, err = e.not(sel, v); err != nil {
			break
		}
		if a, err = e.gate(logic.And, ns, ln); err != nil {
			break
		}
		if b, err = e.gate(logic.And, sel, hn); err != nil {
			break
		}
		id, err = e.gate(logic.Or, a, b)
	}
	if err != nil {
		return 0, err
	}
	e.memo[f] = id
	return id, nil
}
