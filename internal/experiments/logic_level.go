package experiments

import (
	"context"

	"repro/internal/bdd"
	"repro/internal/dontcare"
	"repro/internal/power"
	"repro/internal/sop"
	"repro/internal/tmap"
)

// E4DontCare reproduces §III.A.1: don't-care optimization reduces
// switching activity [38], and accounting for the transitive fanout [19]
// does at least as well as node-local assignment.
func E4DontCare() (*Table, error) {
	t := &Table{
		ID:     "E4",
		Title:  "Don't-care optimization (exact zero-delay power, Eqn. 1 units)",
		Header: []string{"circuit", "objective", "ODC", "P before", "P after", "ratio", "rewrites"},
	}
	p := power.DefaultParams()
	type cfg struct {
		obj    dontcare.Objective
		useODC bool
		label  string
	}
	cfgs := []cfg{
		{dontcare.Area, true, "area [37]"},
		{dontcare.NodeActivity, true, "node activity [38]"},
		{dontcare.NetworkPower, false, "network power, CDC only"},
		{dontcare.NetworkPower, true, "network power + ODC [19]"},
	}
	for _, name := range []string{"cmp4", "alu3", "mux8"} {
		base, err := buildNamed(name)
		if err != nil {
			return nil, err
		}
		before, err := power.Estimate(context.TODO(), base, power.Spec{Method: power.MethodExact, Params: p})
		if err != nil {
			return nil, err
		}
		for _, c := range cfgs {
			nw, err := buildNamed(name)
			if err != nil {
				return nil, err
			}
			res, err := dontcare.OptimizeNetwork(nw, dontcare.Options{
				Objective: c.obj, UseODC: c.useODC, Params: p,
			})
			if err != nil {
				return nil, err
			}
			after, err := power.Estimate(context.TODO(), nw, power.Spec{Method: power.MethodExact, Params: p})
			if err != nil {
				return nil, err
			}
			odc := "no"
			if c.useODC {
				odc = "yes"
			}
			t.AddRow(name, c.label, odc, f2(before.Total()), f2(after.Total()),
				f3(after.Total()/before.Total()), d(res.NodesRewritten))
		}
	}
	t.Note("paper: don't-care sets change gate probabilities and hence switching activity [38]; [19] adds transitive-fanout awareness")
	return t, nil
}

// E6Factoring reproduces §III.A.3: kernel extraction targeting activity-
// weighted literals [35] versus classic literal-count extraction [5].
func E6Factoring() (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "Kernel extraction: literal-count vs activity-weighted selection [35]",
		Header: []string{"system", "cost", "literals after", "weighted cost after", "extractions"},
	}
	// A multi-output system over 8 literals with biased activities: some
	// signals toggle rarely (control), some constantly (data).
	lits := func(ls ...int) []int { return ls }
	mkFns := func() []*sop.Expr {
		return []*sop.Expr{
			// f1 = ab + ac + adg
			sop.NewExpr(lits(0, 1), lits(0, 2), lits(0, 3, 6)),
			// f2 = db + dc + e
			sop.NewExpr(lits(3, 1), lits(3, 2), lits(4)),
			// f3 = gb + gc + f
			sop.NewExpr(lits(6, 1), lits(6, 2), lits(5)),
			// f4 = ae + de
			sop.NewExpr(lits(0, 4), lits(3, 4)),
		}
	}
	// Activities: literals 1,2 (b,c) are low-activity control; 0,3 (a,d)
	// are hot data nets; the rest moderate.
	act := map[int]float64{0: 0.50, 1: 0.04, 2: 0.04, 3: 0.50, 4: 0.25, 5: 0.25, 6: 0.30}
	weight := func(l int) float64 {
		if a, ok := act[l]; ok {
			return a
		}
		return 0.25
	}
	newLitWeight := func(k *sop.Expr) float64 {
		// Probability-flavoured activity of the new node: mean of its
		// literal weights (a standing approximation).
		s, n := 0.0, 0
		for _, pr := range k.Products {
			for _, l := range pr {
				s += weight(l)
				n++
			}
		}
		if n == 0 {
			return 0.25
		}
		return s / float64(n)
	}
	weightedCost := func(fns []*sop.Expr, exts []sop.Extraction) float64 {
		extW := map[int]float64{}
		for _, e := range exts {
			extW[e.Lit] = newLitWeight(e.Expr)
		}
		w := func(l int) float64 {
			if a, ok := extW[l]; ok {
				return a
			}
			return weight(l)
		}
		total := 0.0
		for _, f := range fns {
			total += f.WeightedLiterals(w)
		}
		for _, e := range exts {
			total += e.Expr.WeightedLiterals(w)
		}
		return total
	}
	litCount := func(fns []*sop.Expr, exts []sop.Extraction) int {
		n := 0
		for _, f := range fns {
			n += f.NumLiterals()
		}
		for _, e := range exts {
			n += e.Expr.NumLiterals()
		}
		return n
	}

	area, areaExts := sop.Extract(mkFns(), 100, sop.ExtractOptions{})
	t.AddRow("4-output system", "literal count [5]", d(litCount(area, areaExts)),
		f2(weightedCost(area, areaExts)), d(len(areaExts)))
	pw, pwExts := sop.Extract(mkFns(), 100, sop.ExtractOptions{
		LitWeight: weight, NewLitWeight: newLitWeight,
	})
	t.AddRow("4-output system", "activity-weighted [35]", d(litCount(pw, pwExts)),
		f2(weightedCost(pw, pwExts)), d(len(pwExts)))
	t.Note("paper: 'when targeting power dissipation, the cost function is not literal count but switching activity' [35]")
	return t, nil
}

// E7TechMap reproduces §III.B: graph-covering technology mapping under
// area, delay and power objectives [20,43,48,26].
func E7TechMap() (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Technology mapping objectives (tree covering over NAND2/INV subject graph)",
		Header: []string{"circuit", "objective", "area", "delay", "power (act x pin cap)", "cells"},
	}
	for _, name := range []string{"cmp8", "alu3", "dec4"} {
		for _, obj := range []tmap.Objective{tmap.MinArea, tmap.MinDelay, tmap.MinPower} {
			nw, err := buildNamed(name)
			if err != nil {
				return nil, err
			}
			m, err := tmap.Map(nw, tmap.Options{Objective: obj})
			if err != nil {
				return nil, err
			}
			t.AddRow(name, obj.String(), f2(m.Area), f2(m.Delay), f3(m.Power), d(len(m.Matches)))
		}
	}
	// Technology decomposition ablation [48]: the subject-graph shape
	// changes which cells can cover it.
	nw, err := buildNamed("dec4")
	if err != nil {
		return nil, err
	}
	mLeft, err := tmap.Map(nw, tmap.Options{Objective: tmap.MinPower})
	if err != nil {
		return nil, err
	}
	mBal, err := tmap.Map(nw, tmap.Options{Objective: tmap.MinPower,
		Decompose: tmap.DecomposeOptions{Balanced: true}})
	if err != nil {
		return nil, err
	}
	t.Note("decomposition ablation [48] on dec4 (power objective): left-deep area %.1f / delay %.1f / power %.3f, balanced area %.1f / delay %.1f / power %.3f",
		mLeft.Area, mLeft.Delay, mLeft.Power, mBal.Area, mBal.Delay, mBal.Power)
	t.Note("paper: DAGON-style covering extended to the power cost function; power mapping hides high-activity nets inside cells [43,48]")
	return t, nil
}

// E4b (exposed for the ablation bench): exact vs propagated probability
// estimates on reconvergent circuits.
func ProbabilityAblation() (*Table, error) {
	t := &Table{
		ID:     "E4b",
		Title:  "Ablation: exact (BDD) vs propagated signal probabilities",
		Header: []string{"circuit", "max |error|", "mean |error|"},
	}
	for _, name := range []string{"cmp8", "mult4", "alu3", "par16"} {
		nw, err := buildNamed(name)
		if err != nil {
			return nil, err
		}
		exact, err := power.ExactProbabilities(context.TODO(), nw, nil, bdd.Budget{})
		if err != nil {
			return nil, err
		}
		prop, err := power.PropagatedProbabilities(nw, nil)
		if err != nil {
			return nil, err
		}
		maxE, sumE, n := 0.0, 0.0, 0
		for _, id := range nw.Gates() {
			e := exact[id] - prop[id]
			if e < 0 {
				e = -e
			}
			if e > maxE {
				maxE = e
			}
			sumE += e
			n++
		}
		t.AddRow(name, f3(maxE), f3(sumE/float64(n)))
	}
	t.Note("independence assumption errs under reconvergent fanout; BDD probabilities are exact")
	return t, nil
}
