package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/buscode"
	"repro/internal/encode"
	"repro/internal/gating"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/precomp"
	"repro/internal/retime"
	"repro/internal/sim"
	"repro/internal/stg"
)

// E8Encoding reproduces §III.C.1: state encodings compared by weighted
// switching activity and by the power of the synthesized machines
// [35,47,18].
func E8Encoding() (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  "State encoding: expected FF toggles/cycle and synthesized power",
		Header: []string{"fsm", "encoding", "bits", "weighted activity", "gates", "network power"},
	}
	corpus := stg.Corpus()
	p := power.DefaultParams()
	for _, name := range []string{"count8", "traffic", "arbiter", "det1101", "idler"} {
		g := corpus[name]
		r := rand.New(rand.NewSource(7))
		encoders := []struct {
			label string
			e     encode.Encoding
		}{
			{"binary", encode.MinimalBinary(g)},
			{"gray", encode.Gray(g)},
			{"one-hot", encode.OneHot(g)},
			{"greedy [47]", encode.Greedy(g)},
			{"anneal [35]", encode.Anneal(g, r, encode.AnnealOptions{Iterations: 8000})},
		}
		for _, enc := range encoders {
			nw, err := encode.Synthesize(g, enc.e)
			if err != nil {
				return nil, err
			}
			probs, err := power.SequentialProbabilities(nw, rand.New(rand.NewSource(3)), 1500, 0.5)
			if err != nil {
				return nil, err
			}
			rep, err := power.Estimate(context.TODO(), nw, power.Spec{Method: power.MethodExact, Params: p, InputProb: probs})
			if err != nil {
				return nil, err
			}
			t.AddRow(name, enc.label, d(enc.e.Bits),
				f3(encode.WeightedActivity(g, enc.e)), d(nw.NumGates()), f2(rep.Total()))
		}
	}
	t.Note("paper: heavy transition pairs should get uni-distant codes, but combinational complexity must not be ignored")
	return t, nil
}

// E9BusInvert reproduces the bus-coding discussion of §III.C.1 [39],
// including the paper's worked example (0000 -> 1011 sends 0100 + E).
func E9BusInvert() (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  "Bus encoding: line transitions per transferred word",
		Header: []string{"traffic", "width", "binary", "bus-invert", "saving", "gray", "transition-sig"},
	}
	r := rand.New(rand.NewSource(13))
	mkWords := func(kind string, n, w int) []uint {
		if kind == "walk" {
			return sim.WalkWords(r, n, w, 2)
		}
		out := make([]uint, n)
		switch kind {
		case "random":
			for i := range out {
				out[i] = uint(r.Intn(1 << uint(w)))
			}
		case "counting":
			for i := range out {
				out[i] = uint(i % (1 << uint(w)))
			}
		case "sparse":
			for i := range out {
				var v uint
				for b := 0; b < w; b++ {
					if r.Float64() < 0.1 {
						v |= 1 << uint(b)
					}
				}
				out[i] = v
			}
		}
		return out
	}
	for _, kind := range []string{"random", "walk", "counting", "sparse"} {
		for _, w := range []int{8, 16} {
			words := mkWords(kind, 8000, w)
			bin, err := buscode.CountTransitions(&buscode.Binary{W: w}, words)
			if err != nil {
				return nil, err
			}
			bi, err := buscode.CountTransitions(buscode.NewBusInvert(w), words)
			if err != nil {
				return nil, err
			}
			gr, err := buscode.CountTransitions(&buscode.GrayCode{W: w}, words)
			if err != nil {
				return nil, err
			}
			ts, err := buscode.CountTransitions(buscode.NewTransitionSignal(w), words)
			if err != nil {
				return nil, err
			}
			t.AddRow(kind, d(w), f2(bin.PerWord()), f2(bi.PerWord()),
				pct(1-bi.PerWord()/bin.PerWord()), f2(gr.PerWord()), f2(ts.PerWord()))
		}
	}
	t.Note("paper example: previous 0000, current 1011 -> transmit 0100 with E asserted [39]")
	return t, nil
}

// E10Residue reproduces the one-hot residue coding of Chren [11]:
// constant, low toggle counts for arithmetic progressions.
func E10Residue() (*Table, error) {
	t := &Table{
		ID:     "E10",
		Title:  "One-hot residue coding vs binary (toggles per word)",
		Header: []string{"traffic", "coder", "lines", "avg toggles", "worst toggles"},
	}
	ohr, err := buscode.NewOneHotResidue([]int{3, 5, 7})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(5))
	traffics := map[string][]uint{}
	count := make([]uint, 2000)
	for i := range count {
		count[i] = uint(i) % ohr.Range()
	}
	traffics["counting"] = count
	rnd := make([]uint, 2000)
	for i := range rnd {
		rnd[i] = uint(r.Intn(int(ohr.Range())))
	}
	traffics["random"] = rnd
	for _, kind := range []string{"counting", "random"} {
		words := traffics[kind]
		for _, e := range []buscode.Encoder{&buscode.Binary{W: 7}, ohr} {
			st, err := buscode.CountTransitions(e, words)
			if err != nil {
				return nil, err
			}
			t.AddRow(kind, e.Name(), d(st.Lines), f2(st.PerWord()), d(st.Worst))
		}
	}
	t.Note("paper: one-hot residue coding minimizes switching activity of arithmetic logic [11]; toggles are constant (2 per digit) on counting")
	return t, nil
}

// E11Retiming reproduces §III.C.2: flip-flop outputs switch far less than
// their inputs on glitchy logic, and low-power retiming exploits it [29].
func E11Retiming() (*Table, error) {
	t := &Table{
		ID:     "E11",
		Title:  "Retiming for low power (registered array multipliers)",
		Header: []string{"circuit", "D/Q activity ratio", "min period", "P identity", "P low-power retime", "ratio", "glitches"},
	}
	for _, width := range []int{4, 5} {
		nw, err := registeredMultiplier(width)
		if err != nil {
			return nil, err
		}
		ratio, err := retime.MeasureFFActivityRatio(nw, rand.New(rand.NewSource(9)), 300)
		if err != nil {
			return nil, err
		}
		g, err := retime.BuildGraph(nw)
		if err != nil {
			return nil, err
		}
		p0, err := g.Period(nil)
		if err != nil {
			return nil, err
		}
		r := rand.New(rand.NewSource(17))
		vecs := sim.RandomStimulus(r, 150, len(nw.PIs()), 0.5)
		pp := power.DefaultParams()
		ident := make([]int, len(g.Verts))
		identNet, err := g.Apply(ident)
		if err != nil {
			return nil, err
		}
		repI, err := power.Estimate(context.TODO(), identNet, power.Spec{Method: power.MethodSimulated, Params: pp, Vectors: vecs})
		if err != nil {
			return nil, err
		}
		identP := repI.Total() + 2.0*float64(len(identNet.FFs()))*pp.Vdd*pp.Vdd*pp.Freq
		res, err := retime.LowPower(nw, p0, vecs, pp, 2.0)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("mult%d+oreg", width), f2(ratio), f2(p0),
			f2(identP), f2(res.Power), f3(res.Power/identP), fmt.Sprint(res.Glitches))
	}
	t.Note("paper: 'switching activity at flip-flop outputs can be significantly less than at the inputs' [29]")
	t.Note("output registers already sit on the narrowest cut of the array; moving them inward filters more glitches but multiplies register count and clock power, so gains are small here")
	return t, nil
}

func registeredMultiplier(n int) (*logic.Network, error) {
	nw, err := buildNamed(fmt.Sprintf("mult%d", n))
	if err != nil {
		return nil, err
	}
	outs := append([]logic.NodeID(nil), nw.POs()...)
	for i, po := range outs {
		ff, err := nw.AddDFF(fmt.Sprintf("of%d", i), po, false)
		if err != nil {
			return nil, err
		}
		nw.POs()[i] = ff
	}
	return nw, nil
}

// E12GatedClock reproduces §III.C.3: gated clocks on FSM self-loops [4,9]
// and on a rarely-loaded register bank.
func E12GatedClock() (*Table, error) {
	t := &Table{
		ID:     "E12",
		Title:  "Gated clocks: FSM self-loops [4] and register banks [9]",
		Header: []string{"design", "enable fraction", "P ungated", "P gated", "ratio", "gating gates"},
	}
	p := power.DefaultParams()
	corpus := stg.Corpus()
	for _, name := range []string{"count8", "idler", "arbiter", "det1101"} {
		g := corpus[name]
		e := encode.MinimalBinary(g)
		base, err := encode.Synthesize(g, e)
		if err != nil {
			return nil, err
		}
		gated, err := gating.GateSelfLoops(g, e)
		if err != nil {
			return nil, err
		}
		const clockCap = 4.0
		rb, err := gating.MeasureClockPower(base, logic.InvalidNode, nil,
			rand.New(rand.NewSource(7)), 3000, p, clockCap, nil)
		if err != nil {
			return nil, err
		}
		rg, err := gating.MeasureClockPower(gated.Network, gated.Enable, gated.HoldMuxes,
			rand.New(rand.NewSource(7)), 3000, p, clockCap, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow("fsm:"+name, pct(rg.EnableFraction), f2(rb.Total()), f2(rg.Total()),
			f3(rg.Total()/rb.Total()), d(gated.GatingGates))
	}
	// Register bank, 10% load probability.
	bank, err := gating.BuildRegisterBank(16)
	if err != nil {
		return nil, err
	}
	prob := make([]float64, len(bank.Network.PIs()))
	for i := range prob {
		prob[i] = 0.5
	}
	prob[0] = 0.1
	ru, err := gating.MeasureClockPower(bank.Network, logic.InvalidNode, nil,
		rand.New(rand.NewSource(17)), 3000, p, 2.0, prob)
	if err != nil {
		return nil, err
	}
	rg, err := gating.MeasureClockPower(bank.Network, bank.Load, bank.HoldMuxes,
		rand.New(rand.NewSource(17)), 3000, p, 2.0, prob)
	if err != nil {
		return nil, err
	}
	t.AddRow("regbank16 @10% load", pct(rg.EnableFraction), f2(ru.Total()), f2(rg.Total()),
		f3(rg.Total()/ru.Total()), d(0))
	t.Note("paper: 'the register file is typically not accessed in each clock cycle' [9]; small FSMs may not amortize the activation logic")
	return t, nil
}

// E13Precomputation reproduces Figure 1: the precomputed comparator's
// power versus the number of inspected MSB pairs and input bias.
func E13Precomputation() (*Table, error) {
	t := &Table{
		ID:     "E13",
		Title:  "Figure 1: precomputed comparator (n=8), power vs inspected MSB pairs",
		Header: []string{"inspected j", "P(load)", "logic P", "clock P", "total", "vs baseline", "mismatches"},
	}
	p := power.DefaultParams()
	var base float64
	for j := 0; j <= 4; j++ {
		pc, err := precomp.BuildComparator(8, j)
		if err != nil {
			return nil, err
		}
		rep, err := pc.Measure(rand.New(rand.NewSource(3)), 4000, p, 2.0, 0.5)
		if err != nil {
			return nil, err
		}
		if j == 0 {
			base = rep.Total()
		}
		t.AddRow(d(j), f3(rep.LoadFraction), f2(rep.LogicPower), f2(rep.ClockPower),
			f2(rep.Total()), f3(rep.Total()/base), d(rep.OutputMismatch))
	}
	// Input selection on the combinational comparator.
	nw, err := buildNamed("cmp8")
	if err != nil {
		return nil, err
	}
	subset, prob, err := precomp.SelectInputs(nw, 2)
	if err != nil {
		return nil, err
	}
	names := ""
	for i, id := range subset {
		if i > 0 {
			names += ","
		}
		names += nw.Node(id).Name
	}
	t.Note("universal-quantification input selection [30]: best 2-input subset = {%s}, determination probability %.2f", names, prob)
	t.Note("paper: 'the reduction in power dissipation is a function of the probability that the XNOR gate evaluates to a 0' (here 1-P(load))")

	// Guarded evaluation [44]: freeze a deep cone when its output is
	// unobservable.
	gnet, target, err := guardedEvalExample()
	if err != nil {
		return nil, err
	}
	orig := gnet.Clone()
	var origRegion []logic.NodeID
	for id := range precomp.Region(orig, target) {
		origRegion = append(origRegion, id)
	}
	gc, err := precomp.GuardEvaluation(gnet, target)
	if err != nil {
		return nil, err
	}
	grep, err := precomp.MeasureGuard(orig, gc, origRegion, rand.New(rand.NewSource(7)), 3000, p)
	if err != nil {
		return nil, err
	}
	t.Note("guarded evaluation [44] on a 31-gate cone: guard asserted %.0f%% of cycles, region toggles %d -> %d, power %.1f -> %.1f, %d output mismatches",
		100*grep.GuardedFraction, grep.BaselineToggles, grep.RegionToggles,
		grep.BaselinePower, grep.GuardPower, grep.Mismatches)
	return t, nil
}

// guardedEvalExample builds a deep 3-input mixing cone gated by an enable,
// the guarded-evaluation target (see precomp/guard_test.go).
func guardedEvalExample() (*logic.Network, logic.NodeID, error) {
	nw := logic.New("guard")
	var xs []logic.NodeID
	for i := 0; i < 3; i++ {
		xs = append(xs, nw.MustInput(fmt.Sprintf("gx%d", i)))
	}
	en := nw.MustInput("en")
	acc := nw.MustGate("p1", logic.Xor, xs[0], xs[1])
	for i := 2; i <= 16; i++ {
		mix := nw.MustGate(fmt.Sprintf("m%d", i), logic.And, acc, xs[i%3])
		acc = nw.MustGate(fmt.Sprintf("p%d", i), logic.Xor, mix, xs[(i+1)%3])
	}
	out := nw.MustGate("gout", logic.And, acc, en)
	if err := nw.MarkOutput(out); err != nil {
		return nil, 0, err
	}
	return nw, acc, nil
}
