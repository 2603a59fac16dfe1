package experiments

import (
	"context"
	"errors"

	"repro/internal/bdd"
	"repro/internal/bddsynth"
	"repro/internal/circuits"
	"repro/internal/logic"
)

// E18BDDSynth measures the Popel direction: BDD-derived MUX synthesis
// under sifting variable reordering. For each circuit the table reports
// the BDD size under the fixed declaration order vs after sifting (the
// node-count gap is the entire story for wide comparators), the MUX
// netlist the sifted BDD maps to, and the propagated-probability power
// of the original network vs the MUX candidate — with the accept
// decision the bddsynth pass would take. Both builds start from the
// declaration order on purpose, unlike the pass, which starts from the
// depth-first order: sifting away from that start is what the sifted
// column measures. Everything is deterministic.
func E18BDDSynth() (*Table, error) {
	t := &Table{
		ID:     "E18",
		Title:  "BDD-derived MUX synthesis under sifting reorder (Popel direction)",
		Header: []string{"circuit", "fixed BDD", "sifted BDD", "MUX gates", "orig P", "MUX P", "accepted"},
	}
	budget := bdd.Budget{MaxNodes: 1 << 20}
	for _, name := range []string{"cla8", "mult4", "par16", "cmp8", "cmp12", "cmp16"} {
		nw, err := e18Build(name)
		if err != nil {
			return nil, err
		}
		fixed, err := e18FixedNodes(nw, budget)
		if err != nil {
			return nil, err
		}
		// The sifted build also starts from the declaration order, then
		// Apply emits and scores it as the pass would. KeepWorse measures
		// the candidate even when it would be rejected; the accept column
		// reports the pass's real decision.
		nb, err := bdd.FromNetworkOpts(context.Background(), nw, bdd.BuildOptions{
			Budget: budget, Reorder: bdd.ReorderPolicy{Enable: true}, DeclarationOrder: true,
		})
		if errors.Is(err, bdd.ErrBudgetExceeded) {
			t.AddRow(name, fixed, "trip", "-", "-", "-", "-")
			continue
		}
		if err != nil {
			return nil, err
		}
		res, err := bddsynth.Apply(context.Background(), nw, nb, bddsynth.Options{KeepWorse: true})
		if err != nil {
			return nil, err
		}
		accepted := "no"
		if res.After < res.Before {
			accepted = "yes"
		}
		t.AddRow(name, fixed, d(res.BDDNodes), d(res.MuxGates),
			f2(res.Before), f2(res.After), accepted)
	}
	t.Note("fixed BDD = live nodes under the declaration order ('trip' = blew the 1M-node budget); sifted BDD = after dynamic reordering.")
	t.Note("MUX gates counts the gates emitted for the BDD-to-multiplexer mapping before dead-logic sweep of the displaced netlist.")
	t.Note("power in Eqn. 1 units from propagated probabilities, uniform 0.5 inputs; accepted = the bddsynth pass would keep the rewrite.")
	return t, nil
}

// e18Build extends buildNamed with the wide comparators whose fixed
// declaration order is the experiment's stress case.
func e18Build(name string) (*logic.Network, error) {
	switch name {
	case "cmp12":
		return circuits.Comparator(12)
	case "cmp16":
		return circuits.Comparator(16)
	}
	return buildNamed(name)
}

// e18FixedNodes reports the live BDD node count under the fixed
// declaration order, or "trip" when it cannot fit the budget.
func e18FixedNodes(nw *logic.Network, budget bdd.Budget) (string, error) {
	nb, err := bdd.FromNetworkOpts(context.Background(), nw, bdd.BuildOptions{
		Budget: budget, DeclarationOrder: true,
	})
	if err != nil {
		if errors.Is(err, bdd.ErrBudgetExceeded) {
			return "trip", nil
		}
		return "", err
	}
	return d(nb.M.Size() - 2), nil
}
