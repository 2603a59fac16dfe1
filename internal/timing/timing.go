// Package timing provides static timing analysis over logic networks:
// arrival times, required times and slacks under an arbitrary per-node
// delay function. The transistor-sizing, path-balancing and
// technology-mapping passes all consume it.
package timing

import "repro/internal/logic"

// DelayFn returns the propagation delay of a node's gate. Sources (inputs,
// constants, flip-flop outputs) should return 0.
type DelayFn func(id logic.NodeID) float64

// Unit assigns delay 1 to every gate and 0 to sources.
func Unit(nw *logic.Network) DelayFn {
	return func(id logic.NodeID) float64 {
		n := nw.Node(id)
		if n != nil && n.Type.IsGate() {
			return 1
		}
		return 0
	}
}

// Analysis holds the result of one timing pass.
type Analysis struct {
	// Arrival is the latest time each node's output settles (indexed by
	// NodeID; dead nodes hold 0).
	Arrival []float64
	// Required is the latest allowed settle time given the critical delay
	// (or an explicit target).
	Required []float64
	// Slack = Required − Arrival, >= 0 when timing is met.
	Slack []float64
	// Critical is the maximum arrival over all timing endpoints (POs and
	// FF D inputs).
	Critical float64
}

// Analyze runs arrival/required/slack propagation. If target < 0 the
// required time at endpoints defaults to the critical delay (zero slack on
// the critical path); otherwise endpoints are required at target.
func Analyze(nw *logic.Network, delay DelayFn, target float64) (*Analysis, error) {
	order, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := nw.NumNodes()
	a := &Analysis{
		Arrival:  make([]float64, n),
		Required: make([]float64, n),
		Slack:    make([]float64, n),
	}
	// Arrival: sources at 0, gates at max(fanin)+delay.
	for _, id := range order {
		nd := nw.Node(id)
		at := 0.0
		for _, f := range nd.Fanin {
			if a.Arrival[f] > at {
				at = a.Arrival[f]
			}
		}
		a.Arrival[id] = at + delay(id)
	}
	// Endpoints: POs and FF D inputs.
	endpoints := make(map[logic.NodeID]bool)
	for _, po := range nw.POs() {
		endpoints[po] = true
	}
	for _, ff := range nw.FFs() {
		endpoints[nw.Node(ff).Fanin[0]] = true
	}
	for id := range endpoints {
		if a.Arrival[id] > a.Critical {
			a.Critical = a.Arrival[id]
		}
	}
	req := target
	if req < 0 {
		req = a.Critical
	}
	const inf = 1e18
	for i := range a.Required {
		a.Required[i] = inf
	}
	for id := range endpoints {
		if req < a.Required[id] {
			a.Required[id] = req
		}
	}
	// Required: reverse topological propagation; required(f) =
	// min over consumers c of required(c) - delay(c).
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		r := a.Required[id]
		for _, f := range nw.Node(id).Fanin {
			cand := r - delay(id)
			if cand < a.Required[f] {
				a.Required[f] = cand
			}
		}
	}
	// Sources may also feed endpoints directly; those were set above. Any
	// node never constrained keeps +inf required (dead-end logic); clamp
	// its slack to a large value.
	for _, id := range nw.Live() {
		if a.Required[id] >= inf {
			a.Required[id] = req
		}
		a.Slack[id] = a.Required[id] - a.Arrival[id]
	}
	return a, nil
}
