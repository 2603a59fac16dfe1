package sop

import (
	"fmt"

	"repro/internal/logic"
)

// SynthesizeCover adds a two-level AND/OR realization of the cover to the
// network, with vars[i] supplying variable i (inverters are inserted or
// reused for complemented literals). It returns the node computing the
// cover. An empty cover yields a constant-0 node.
func SynthesizeCover(nw *logic.Network, name string, cv *Cover, vars []logic.NodeID) (logic.NodeID, error) {
	if len(vars) != cv.NumVars {
		return logic.InvalidNode, fmt.Errorf("sop: %d vars supplied for %d-var cover", len(vars), cv.NumVars)
	}
	if cv.IsEmpty() {
		return nw.AddConst(nw.FreshName(name), false)
	}
	var terms []logic.NodeID
	for _, c := range cv.Cubes {
		var lits []logic.NodeID
		for i, l := range c {
			switch l {
			case One:
				lits = append(lits, vars[i])
			case Zero:
				inv, err := nw.Inverter(vars[i])
				if err != nil {
					return logic.InvalidNode, err
				}
				lits = append(lits, inv)
			}
		}
		switch len(lits) {
		case 0:
			return nw.AddConst(nw.FreshName(name), true)
		case 1:
			terms = append(terms, lits[0])
		default:
			t, err := nw.AddGate(nw.FreshName(name+"_and"), logic.And, lits...)
			if err != nil {
				return logic.InvalidNode, err
			}
			terms = append(terms, t)
		}
	}
	if len(terms) == 1 {
		return nw.AddGate(nw.FreshName(name), logic.Buf, terms[0])
	}
	return nw.AddGate(nw.FreshName(name), logic.Or, terms...)
}
