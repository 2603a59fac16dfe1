package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/archpower"
	"repro/internal/behav"
	"repro/internal/sim"
	"repro/internal/sw"
)

// E14ArchModels reproduces §IV.A: architecture-level power models versus
// gate-level truth, across workloads [15,21,22,36,41].
func E14ArchModels() (*Table, error) {
	t := &Table{
		ID:     "E14",
		Title:  "Architecture-level power models: relative error vs gate-level simulation",
		Header: []string{"module", "workload", "toggle rate", "truth (C/cyc)", "gatecount err", "fixed err", "activity err"},
	}
	r := rand.New(rand.NewSource(3))
	// Characterize all modules; gate-count constant calibrated on the adder.
	type mod struct {
		name string
	}
	mods := []mod{{"radd8"}, {"mult4"}, {"cmp8"}}
	chs := map[string]archpower.Characterization{}
	for _, m := range mods {
		nw, err := buildNamed(m.name)
		if err != nil {
			return nil, err
		}
		ch, err := archpower.Characterize(m.name, nw, r, 1500)
		if err != nil {
			return nil, err
		}
		chs[m.name] = ch
	}
	capPerGate := archpower.CalibrateGateCount(chs["radd8"])
	for _, m := range mods {
		nw, err := buildNamed(m.name)
		if err != nil {
			return nil, err
		}
		for _, wl := range []string{"random", "walk"} {
			var st sim.Stimulus
			if wl == "random" {
				st = sim.RandomStimulus(r, 2500, len(nw.PIs()), 0.5)
			} else {
				words := sim.WalkWords(r, 2500, len(nw.PIs()), 2)
				st = sim.DrawStimulus(len(words), len(nw.PIs()), func(i, j int) bool { return words[i]>>j&1 != 0 })
			}
			truth, err := archpower.TrueSwitchedCap(nw, st)
			if err != nil {
				return nil, err
			}
			ws := archpower.AnalyzeWorkload(st, 1.0)
			errs := archpower.ModelErrors(chs[m.name], capPerGate, truth, ws)
			t.AddRow(m.name, wl, f3(ws.ToggleRate), f2(truth),
				pct(math.Abs(errs["gatecount"])), pct(math.Abs(errs["fixed"])), pct(math.Abs(errs["activity"])))
		}
	}
	t.Note("paper: models using known signal statistics [21,22] beat per-module averages [15,36] and gate-count estimates [41]")
	return t, nil
}

// E15Behavioral reproduces §IV.B: concurrency transformations enabling
// quadratic voltage savings [7], module selection [17], correlation-aware
// binding [33,34], and memory loop transformations [14].
func E15Behavioral() (*Table, error) {
	t := &Table{
		ID:     "E15",
		Title:  "Behavioral synthesis for low power (4-tap FIR at fixed throughput)",
		Header: []string{"design point", "Vdd", "energy/iter (pJ@Vref)", "power (µW)", "vs direct"},
	}
	d := behav.NewDFG("fir4")
	var prods []*behav.Op
	for i := 0; i < 4; i++ {
		x, err := d.Input(fmt.Sprintf("x%d", i))
		if err != nil {
			return nil, err
		}
		c, err := d.Const(fmt.Sprintf("c%d", i), firCoeff(i))
		if err != nil {
			return nil, err
		}
		pr, err := d.Mul(fmt.Sprintf("p%d", i), x, c)
		if err != nil {
			return nil, err
		}
		prods = append(prods, pr)
	}
	s1, err := d.Add("s1", prods[0], prods[1])
	if err != nil {
		return nil, err
	}
	s2, err := d.Add("s2", prods[2], prods[3])
	if err != nil {
		return nil, err
	}
	y, err := d.Add("y", s1, s2)
	if err != nil {
		return nil, err
	}
	if _, err := d.Output("out", y); err != nil {
		return nil, err
	}

	lib := behav.DefaultModules()
	const throughput = 5.0 // samples/µs
	base, err := behav.PowerAtThroughput(d, lib, throughput, 1)
	if err != nil {
		return nil, err
	}
	t.AddRow("direct", f2(base.Voltage), f2(base.EnergyPJ), f2(base.PowerUW), "100.0%")
	for _, factor := range []int{2, 4} {
		dp, err := behav.Parallelize(d, factor)
		if err != nil {
			return nil, err
		}
		res, err := behav.PowerAtThroughput(dp, lib, throughput, factor)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("parallel x%d + Vdd scaling", factor),
			f2(res.Voltage), f2(res.EnergyPJ), f2(res.PowerUW), pct(res.PowerUW/base.PowerUW))
	}

	// Binding comparison on the real FIR structure: the inputs are a
	// delay line (x_i[t] = s[t-i]) and coefficients repeat across taps, so
	// which multiplier executes which tap changes the operand-bus
	// switching [33].
	r := rand.New(rand.NewSource(5))
	limits := map[behav.OpKind]int{behav.OpMul: 2, behav.OpAdd: 2}
	sch, err := d.ListSchedule(limits)
	if err != nil {
		return nil, err
	}
	traces := delayLineTraces(r, 400, 10)
	bFF, err := behav.BindGreedyCorrelation(d, sch, traces, false)
	if err != nil {
		return nil, err
	}
	bCorr, err := behav.BindGreedyCorrelation(d, sch, traces, true)
	if err != nil {
		return nil, err
	}
	swFF, err := behav.SwitchedCapacitance(d, sch, bFF, traces)
	if err != nil {
		return nil, err
	}
	swCorr, err := behav.SwitchedCapacitance(d, sch, bCorr, traces)
	if err != nil {
		return nil, err
	}
	t.Note("binding [33]: first-fit %.1f operand-bus toggles/iter vs correlation-aware %.1f (%.1f%% saving)",
		swFF, swCorr, 100*(1-swCorr/swFF))

	// Memory loop order [14].
	cfg := behav.DefaultCache()
	row, err := behav.MatrixTrace(64, 64, behav.RowMajor)
	if err != nil {
		return nil, err
	}
	col, err := behav.MatrixTrace(64, 64, behav.ColMajor)
	if err != nil {
		return nil, err
	}
	stRow, err := behav.SimulateTrace(cfg, row)
	if err != nil {
		return nil, err
	}
	stCol, err := behav.SimulateTrace(cfg, col)
	if err != nil {
		return nil, err
	}
	t.Note("memory [14]: 64x64 scan, column-major %.0f pJ vs row-major %.0f pJ (loop interchange saves %.1f%%)",
		stCol.EnergyPJ, stRow.EnergyPJ, 100*(1-stRow.EnergyPJ/stCol.EnergyPJ))
	t.Note("paper: 'the quadratic decrease in power consumption can compensate for the additional capacitance' [7]")
	return t, nil
}

// E16Software reproduces §V: instruction-level power analysis [46],
// compilation effects [45], cold scheduling [40,23] and algorithm choice
// [49].
func E16Software() (*Table, error) {
	t := &Table{
		ID:     "E16",
		Title:  "Software power (instruction-level model, big CPU unless noted)",
		Header: []string{"program", "instrs", "cycles", "energy (nJ)", "vs baseline"},
	}
	model := sw.BigCPUModel()
	const n = 48
	mem := make([]int32, n+2)
	for i := 0; i < n; i++ {
		mem[i] = int32(i * 2)
	}
	run := func(p sw.Program) (sw.RunStats, sw.EnergyBreakdown, error) {
		st, e, _, err := sw.MeasureProgram(p, mem, model, 200000)
		return st, e, err
	}
	pReg, err := sw.SumArrayReg(n)
	if err != nil {
		return nil, err
	}
	stR, eR, err := run(pReg)
	if err != nil {
		return nil, err
	}
	t.AddRow("sum (register acc)", d(stR.Instructions), d(stR.Cycles), f2(eR.Total()), "100.0%")
	pMem, err := sw.SumArrayMem(n)
	if err != nil {
		return nil, err
	}
	stM, eM, err := run(pMem)
	if err != nil {
		return nil, err
	}
	t.AddRow("sum (memory acc)", d(stM.Instructions), d(stM.Cycles), f2(eM.Total()), pct(eM.Total()/eR.Total()))
	pU, err := sw.SumArrayUnrolled(n)
	if err != nil {
		return nil, err
	}
	stU, eU, err := run(pU)
	if err != nil {
		return nil, err
	}
	t.AddRow("sum (unrolled x4)", d(stU.Instructions), d(stU.Cycles), f2(eU.Total()), pct(eU.Total()/eR.Total()))

	key := int32(n * 2 * 3 / 4)
	lin, err := sw.LinearSearch(n, key)
	if err != nil {
		return nil, err
	}
	stL, eL, err := run(lin)
	if err != nil {
		return nil, err
	}
	t.AddRow("linear search", d(stL.Instructions), d(stL.Cycles), f2(eL.Total()), "100.0%")
	bin, err := sw.BinarySearch(n, key)
	if err != nil {
		return nil, err
	}
	stB, eB, err := run(bin)
	if err != nil {
		return nil, err
	}
	t.AddRow("binary search [49]", d(stB.Instructions), d(stB.Cycles), f2(eB.Total()), pct(eB.Total()/eL.Total()))

	// Cold scheduling: DSP vs big CPU.
	block, err := sw.DotProductBlock(4)
	if err != nil {
		return nil, err
	}
	for _, m := range []*sw.PowerModel{sw.DSPModel(), sw.BigCPUModel()} {
		sched, err := sw.ColdSchedule(block, m)
		if err != nil {
			return nil, err
		}
		before := m.Energy(opcodes(block))
		after := m.Energy(opcodes(sched))
		t.AddRow(fmt.Sprintf("dot4 cold-sched (%s)", m.Name),
			d(len(block)), d(after.Cycles), f2(after.Total()), pct(after.Total()/before.Total()))
	}
	// MAC pairing on the DSP.
	paired := sw.PairMAC(block)
	dsp := sw.DSPModel()
	t.AddRow("dot4 MAC-paired (dsp) [23]", d(len(paired)),
		d(dsp.Energy(opcodes(paired)).Cycles), f2(dsp.Energy(opcodes(paired)).Total()),
		pct(dsp.Energy(opcodes(paired)).Total()/dsp.Energy(opcodes(block)).Total()))

	t.Note("paper: 'faster code almost always implies lower energy code'; 'register operands are much cheaper than memory operands' [45,46]")
	t.Note("paper: scheduling 'may not be an important issue for large general purpose CPUs, but has an impact on a smaller DSP' [46,23,40]")
	return t, nil
}

func opcodes(block []sw.Instr) []sw.Opcode {
	out := make([]sw.Opcode, len(block))
	for i, in := range block {
		out[i] = in.Op
	}
	return out
}

// firCoeff gives a symmetric coefficient set (5,3,3,5): typical for
// linear-phase FIR filters, and the symmetry is what correlation-aware
// binding exploits (taps with equal coefficients share a multiplier).
func firCoeff(i int) int {
	coeffs := [4]int{5, 3, 3, 5}
	return coeffs[i%4]
}

// delayLineTraces generates FIR input traces where x_i is the input
// stream delayed by i samples — the physical delay-line correlation.
func delayLineTraces(r *rand.Rand, n, widthBits int) []map[string]int {
	limit := 1 << uint(widthBits)
	hist := make([]int, 4)
	cur := r.Intn(limit)
	out := make([]map[string]int, n)
	for t := range out {
		cur += r.Intn(9) - 4
		if cur < 0 {
			cur = 0
		}
		if cur >= limit {
			cur = limit - 1
		}
		copy(hist[1:], hist[:3])
		hist[0] = cur
		tr := map[string]int{}
		for i := 0; i < 4; i++ {
			tr[fmt.Sprintf("x%d", i)] = hist[i]
		}
		out[t] = tr
	}
	return out
}
