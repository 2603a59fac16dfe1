package experiments

import (
	"repro/internal/core"
	"repro/internal/power"
)

// E17Incremental quantifies the dirty-cone reuse that makes estimate-in-
// the-loop flows tractable (ROADMAP item 3; cf. Simopt-Power's carried
// simulation metadata): each lowpower-flow measurement re-derives only the
// cone of the nodes the pass changed, and the table reports how much of
// the network was reused — with every incremental measurement
// cross-checked for exact equality against a from-scratch recompute of
// the same engines. All columns are structural, so the table is
// byte-deterministic (servable and cacheable).
func E17Incremental() (*Table, error) {
	t := &Table{
		ID:     "E17",
		Title:  "Incremental re-estimation: dirty-cone reuse across lowpower-flow passes",
		Header: []string{"circuit", "pass", "cone", "clean", "reuse", "prop P", "packed P", "== full"},
	}
	passes := core.StandardFlows()["lowpower"].Passes
	reg := core.Registry()
	for _, name := range []string{"cla8", "mult4", "cmp8", "mux8"} {
		nw, err := buildNamed(name)
		if err != nil {
			return nil, err
		}
		fctx := core.NewContext(nw, 1)
		est := power.NewIncrementalEstimator(nw, fctx.Params, fctx.CapModel, fctx.InputProb, fctx.Vectors)
		res, err := est.Measure()
		if err != nil {
			return nil, err
		}
		t.AddRow(name, "initial", "-", "-", "-", f2(res.Propagated.Total()), f2(res.Packed.Total()), "yes")
		for _, pname := range passes {
			if err := reg[pname].Run(nw, fctx); err != nil {
				return nil, err
			}
			res, err := est.Measure()
			if err != nil {
				return nil, err
			}
			// From-scratch reference on the now-mutated network: a fresh
			// estimator's first measurement is always a full recompute.
			refEst := power.NewIncrementalEstimator(nw, fctx.Params, fctx.CapModel, fctx.InputProb, fctx.Vectors)
			ref, err := refEst.Measure()
			if err != nil {
				return nil, err
			}
			match := "yes"
			if res.Propagated.Total() != ref.Propagated.Total() ||
				res.Packed.Total() != ref.Packed.Total() || res.Totals != ref.Totals {
				match = "NO"
			}
			cone, clean, reuse := "-", "-", "-"
			if res.Incremental {
				cone, clean = d(res.ConeNodes), d(res.CleanNodes)
				if n := res.ConeNodes + res.CleanNodes; n > 0 {
					reuse = pct(float64(res.CleanNodes) / float64(n))
				}
			}
			t.AddRow(name, pname, cone, clean, reuse,
				f2(res.Propagated.Total()), f2(res.Packed.Total()), match)
		}
	}
	t.Note("cone/clean split the live combinational nodes of each measurement: re-derived vs reused from the baseline.")
	t.Note("'== full' checks exact (bit-identical) equality of both reports and the simulation totals against a from-scratch recompute.")
	t.Note("power in Eqn. 1 units: 'prop P' from propagated probabilities, 'packed P' from packed zero-delay Monte Carlo (400 vectors, seed 1).")
	return t, nil
}
