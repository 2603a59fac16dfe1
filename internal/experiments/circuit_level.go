package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/xsistor"
)

// E1PowerBreakdown reproduces Eqn. 1 and the claim that switching activity
// power exceeds 90% of the total in well-designed CMOS ([8], §I) across
// the benchmark circuits.
func E1PowerBreakdown() (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "Eqn. 1 power breakdown — switching share of total power",
		Header: []string{"circuit", "gates", "P_switch", "P_shortckt", "P_leak", "total", "switching share"},
	}
	p := power.DefaultParams()
	for _, b := range []struct {
		name string
	}{
		{"radd8"}, {"cla8"}, {"mult5"}, {"cmp8"}, {"alu4"}, {"par16"},
	} {
		nw, err := buildNamed(b.name)
		if err != nil {
			return nil, err
		}
		rep, err := power.Estimate(context.TODO(), nw, power.Spec{Method: power.MethodExact, Params: p})
		if err != nil {
			return nil, err
		}
		t.AddRow(b.name, d(nw.NumGates()), f2(rep.Switching), f2(rep.ShortCkt), f2(rep.Leakage),
			f2(rep.Total()), pct(rep.SwitchingShare()))
	}
	t.Note("paper: switching activity power accounts for over 90%% of total [8]")
	return t, nil
}

// E2Reordering reproduces §II.A: transistor reordering inside complex
// gates yields moderate power and delay improvements [32,42].
func E2Reordering() (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  "Transistor reordering in series stacks (power per cycle, switched C units)",
		Header: []string{"stack", "input probs", "natural", "best order", "heuristic", "saving", "min delay order"},
	}
	r := rand.New(rand.NewSource(2))
	cases := []struct {
		k     int
		probs []float64
		arr   []float64
	}{
		{3, []float64{0.9, 0.1, 0.5}, []float64{0, 2, 0}},
		{4, []float64{0.95, 0.05, 0.5, 0.3}, []float64{0, 0, 3, 0}},
		{5, []float64{0.9, 0.8, 0.2, 0.1, 0.5}, []float64{0, 1, 0, 0, 2}},
	}
	for _, c := range cases {
		vecs := sim.BiasedStimulus(r, 4000, c.probs)
		s, err := xsistor.NewSeriesStack(c.k)
		if err != nil {
			return nil, err
		}
		natural := s.SimulatePower(vecs)
		best, dBest, err := s.Reorder(vecs, c.arr)
		if err != nil {
			return nil, err
		}
		h := &xsistor.SeriesStack{Order: xsistor.HeuristicOrder(c.probs, c.arr), CInternal: s.CInternal, COut: s.COut}
		hp := h.SimulatePower(vecs)
		t.AddRow(fmt.Sprintf("nand%d", c.k), fmt.Sprint(c.probs), f3(natural), f3(best.Power),
			f3(hp), pct(1-best.Power/natural), fmt.Sprint(dBest.Order))
	}
	t.Note("paper: 'moderate improvements in power and delay can be obtained by judicious ordering' [32,42]")
	return t, nil
}

// E3Sizing reproduces §II.B: slack-driven transistor downsizing trades
// delay slack for power at constant function [42,3].
func E3Sizing() (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  "Transistor sizing under a delay constraint (ripple adder, switched C·activity)",
		Header: []string{"delay target", "achieved delay", "switched cap", "vs max-size", "moves"},
	}
	nw, err := circuits.RippleAdder(6)
	if err != nil {
		return nil, err
	}
	probs, err := power.ExactProbabilities(context.TODO(), nw, nil, bdd.Budget{})
	if err != nil {
		return nil, err
	}
	act := probs.Activity
	maxCap, minDelay, err := xsistor.UniformPower(nw, act, 8, 0.5)
	if err != nil {
		return nil, err
	}
	t.AddRow("all max size", f2(minDelay), f2(maxCap), "100.0%", "0")
	for _, factor := range []float64{1.0, 1.25, 1.5, 2.0} {
		res, err := xsistor.SizeForPower(nw, act, xsistor.SizingOptions{
			MaxSize: 8, MinSize: 1, WireCap: 0.5, DelayTarget: minDelay * factor,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f x Dmin", factor), f2(res.Delay), f2(res.SwitchedCap),
			pct(res.SwitchedCap/maxCap), d(res.Moves))
	}
	t.Note("paper: 'sizes of transistors reduced until the slack becomes zero' — power falls as the delay budget grows")
	return t, nil
}

// E5PathBalance reproduces §III.A.2: spurious transitions are 10-40%% of
// switching activity; balancing eliminates them, with buffer capacitance
// as the countervailing cost [16,25].
func E5PathBalance() (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "Path balancing: glitch share and power (min-size buffers vs full-size)",
		Header: []string{"circuit", "glitch share", "P before", "P balanced (min buf)", "ratio", "P balanced (full buf)", "ratio", "buffers"},
	}
	for _, name := range []string{"mult4", "mult5", "mult6", "radd8", "parch12"} {
		nw, err := buildNamed(name)
		if err != nil {
			return nil, err
		}
		r := rand.New(rand.NewSource(29))
		vecs := sim.RandomStimulus(r, 300, len(nw.PIs()), 0.5)
		p := power.DefaultParams()
		minCap := power.BufferWeightedCap(0.25)
		fullCap := power.BufferWeightedCap(1.0)
		repB, err := power.Estimate(context.TODO(), nw, power.Spec{Method: power.MethodSimulated, Params: p, CapModel: minCap, Vectors: vecs})
		if err != nil {
			return nil, err
		}
		repBFull, err := power.Estimate(context.TODO(), nw, power.Spec{Method: power.MethodSimulated, Params: p, CapModel: fullCap, Vectors: vecs})
		if err != nil {
			return nil, err
		}
		bal, err := buildNamed(name)
		if err != nil {
			return nil, err
		}
		res, err := balanceFull(bal)
		if err != nil {
			return nil, err
		}
		repA, err := power.Estimate(context.TODO(), bal, power.Spec{Method: power.MethodSimulated, Params: p, CapModel: minCap, Vectors: vecs})
		if err != nil {
			return nil, err
		}
		repAFull, err := power.Estimate(context.TODO(), bal, power.Spec{Method: power.MethodSimulated, Params: p, CapModel: fullCap, Vectors: vecs})
		if err != nil {
			return nil, err
		}
		t.AddRow(name, pct(repB.Totals.SpuriousFraction()),
			f2(repB.Total()), f2(repA.Total()), f3(repA.Total()/repB.Total()),
			f2(repAFull.Total()), f3(repAFull.Total()/repBFull.Total()), d(res))
	}
	t.Note("paper: spurious transitions account for 10-40%% of switching activity [16]; buffers 'may offset the reduction'")
	return t, nil
}
