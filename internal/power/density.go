package power

import (
	"context"

	"repro/internal/bdd"
	"repro/internal/logic"
)

// TransitionDensities computes per-node transition densities by Najm's
// propagation rule (the survey's §IV.A points at Najm's estimation survey
// [31] for gate-level tooling):
//
//	D(y) = Σ_i P(∂y/∂x_i) · D(x_i)
//
// where ∂y/∂x_i = y|x=1 ⊕ y|x=0 is the Boolean difference, its
// probability computed exactly on the global BDDs. inputDensity maps
// source nodes (PIs, FFs) to their transition density (average transitions
// per cycle, e.g. a measured rate); inputProb gives their static
// probabilities (missing = 0.5). Sources missing from inputDensity (all
// of them when it is nil) are taken as temporally independent, with
// density 2·p·(1−p). Unlike the zero-delay pair model, density
// propagation accounts for a net transitioning more than once per cycle —
// it is the standard upper-level estimate of glitch-inclusive activity.
//
// The BDDs are built and differenced under ctx and budget (the zero
// Budget is unlimited). A trip returns the *bdd.BudgetError (matching
// bdd.ErrBudgetExceeded). Unlike the exact estimator there is no Monte
// Carlo fallback: a zero-delay sample sees at most one transition per
// cycle, so it would estimate a different quantity.
func TransitionDensities(ctx context.Context, nw *logic.Network, inputDensity map[logic.NodeID]float64, inputProb Probabilities, budget bdd.Budget) (map[logic.NodeID]float64, error) {
	nb, err := bdd.FromNetworkCtx(ctx, nw, budget)
	if err != nil {
		return nil, err
	}
	m := nb.M
	pv := make([]float64, m.NumVars())
	density := make(map[logic.NodeID]float64, len(nb.Fn))
	for i, src := range nb.Vars {
		p, ok := inputProb[src]
		if !ok {
			p = 0.5
		}
		pv[i] = p
		d, ok := inputDensity[src]
		if !ok {
			d = 2 * p * (1 - p)
		}
		density[src] = d
	}
	order, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		n := nw.Node(id)
		f := nb.Fn[id]
		if !n.Type.IsGate() {
			density[id] = 0 // constants
			continue
		}
		total := 0.0
		for _, vi := range m.Support(f) {
			diff := m.Xor(m.Restrict(f, vi, true), m.Restrict(f, vi, false))
			src := nb.Vars[vi]
			total += m.Probability(diff, pv) * density[src]
		}
		density[id] = total
	}
	if err := m.Err(); err != nil {
		return nil, err
	}
	return density, nil
}
