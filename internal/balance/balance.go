// Package balance implements path balancing for glitch reduction
// (survey §III.A.2): inserting unit-delay buffers so that the signals
// converging at each gate arrive (nearly) simultaneously, eliminating the
// spurious transitions that account for 10–40% of switching activity in
// typical combinational circuits [16]. Full balancing removes all glitches
// under the unit-delay model; partial balancing (MaxSkew > 0) trades
// residual glitches for fewer buffers, as the added buffer capacitance can
// offset the savings — the multiplier of Lemonds and Mahant-Shetti [25]
// applied exactly this trade.
package balance

import (
	"fmt"
	"slices"

	"repro/internal/logic"
)

// Options configures the balancing pass.
type Options struct {
	// MaxSkew is the largest tolerated difference, in unit delays, between
	// a fanin's arrival and the latest arrival at its consumer. 0 means
	// full balancing (no skew, no glitches); k > 0 leaves up to k units of
	// skew unbuffered.
	MaxSkew int
}

// Result reports what the pass did.
type Result struct {
	BuffersAdded int
	// Depth is the circuit depth after balancing (unchanged by the pass:
	// buffers are only added on non-critical edges).
	Depth int
}

// Balance inserts unit-delay buffers into the network in place. It assumes
// the unit-delay model: every gate, including inserted buffers, takes one
// time unit; sources arrive at time 0.
func Balance(nw *logic.Network, opts Options) (Result, error) {
	if opts.MaxSkew < 0 {
		return Result{}, fmt.Errorf("balance: negative MaxSkew %d", opts.MaxSkew)
	}
	lv, depth, err := nw.Levels()
	if err != nil {
		return Result{}, err
	}
	res := Result{Depth: depth}
	// Buffer chains are shared: (source, delay) pairs map to the chain
	// node providing the source delayed by that many units.
	type chainKey struct {
		src   logic.NodeID
		delay int
	}
	chains := make(map[chainKey]logic.NodeID)
	var delayed func(src logic.NodeID, d int) (logic.NodeID, error)
	delayed = func(src logic.NodeID, d int) (logic.NodeID, error) {
		if d <= 0 {
			return src, nil
		}
		if id, ok := chains[chainKey{src, d}]; ok {
			return id, nil
		}
		prev, err := delayed(src, d-1)
		if err != nil {
			return logic.InvalidNode, err
		}
		name := fmt.Sprintf("%s_dly%d", nw.Node(src).Name, d)
		id, err := nw.AddGate(nw.FreshName(name), logic.Buf, prev)
		if err != nil {
			return logic.InvalidNode, err
		}
		res.BuffersAdded++
		chains[chainKey{src, d}] = id
		return id, nil
	}

	// Process a snapshot of gates: inserted buffers must not be revisited.
	gates := nw.Gates()
	for _, id := range gates {
		n := nw.Node(id)
		if n == nil || !n.Type.IsGate() {
			continue
		}
		tGate := lv[id]
		// Each fanin should arrive at tGate-1; a fanin at level lv[f]
		// arrives gap = tGate-1-lv[f] units early.
		fanin := append([]logic.NodeID(nil), n.Fanin...)
		for i, f := range fanin {
			fn := nw.Node(f)
			if fn == nil || slices.Contains(fanin[:i], f) {
				continue // a repeated pin was rewired with its first
			}
			fTime := lv[f]
			if !fn.Type.IsGate() {
				fTime = 0
			}
			gap := tGate - 1 - fTime
			need := gap - opts.MaxSkew
			if need <= 0 {
				continue
			}
			buf, err := delayed(f, need)
			if err != nil {
				return res, err
			}
			if err := nw.ReplaceFanin(id, f, buf); err != nil {
				return res, err
			}
		}
	}
	// Recompute depth (should be unchanged).
	if _, d, err := nw.Levels(); err == nil {
		res.Depth = d
	}
	return res, nil
}
