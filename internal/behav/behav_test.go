package behav

import (
	"math"
	"math/rand"
	"testing"
)

// firDFG builds a 4-tap FIR filter kernel: y = Σ c_i * x_i.
func firDFG(t *testing.T) *DFG {
	t.Helper()
	d := NewDFG("fir4")
	var prods []*Op
	for i := 0; i < 4; i++ {
		x, err := d.Input(xname(i))
		if err != nil {
			t.Fatal(err)
		}
		c, err := d.Const(cname(i), 3+2*i)
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Mul(pname(i), x, c)
		if err != nil {
			t.Fatal(err)
		}
		prods = append(prods, p)
	}
	s1, err := d.Add("s1", prods[0], prods[1])
	if err != nil {
		t.Fatal(err)
	}
	s2, err := d.Add("s2", prods[2], prods[3])
	if err != nil {
		t.Fatal(err)
	}
	y, err := d.Add("y", s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Output("out", y); err != nil {
		t.Fatal(err)
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	return d
}

func xname(i int) string { return "x" + string(rune('0'+i)) }
func cname(i int) string { return "c" + string(rune('0'+i)) }
func pname(i int) string { return "p" + string(rune('0'+i)) }

func TestDFGEval(t *testing.T) {
	d := firDFG(t)
	out, err := d.Eval(map[string]int{"x0": 1, "x1": 2, "x2": 3, "x3": 4})
	if err != nil {
		t.Fatal(err)
	}
	// y = 1*3 + 2*5 + 3*7 + 4*9 = 70.
	if out["out"] != 70 {
		t.Errorf("fir output = %d, want 70", out["out"])
	}
	if _, err := d.Eval(map[string]int{"x0": 1}); err == nil {
		t.Error("missing inputs should fail")
	}
}

func TestASAPandALAP(t *testing.T) {
	d := firDFG(t)
	asap := d.ASAP()
	// Multiplies at step 0, s1/s2 at 1, y at 2: 3 steps.
	if asap.Steps != 3 {
		t.Errorf("ASAP steps = %d, want 3", asap.Steps)
	}
	if err := asap.Validate(d, nil); err != nil {
		t.Error(err)
	}
	alap, err := d.ALAP(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := alap.Validate(d, nil); err != nil {
		t.Error(err)
	}
	// y must land on the last step under ALAP.
	yID := -1
	for _, op := range d.Ops {
		if op.Name == "y" {
			yID = op.ID
		}
	}
	if alap.Step[yID] != 4 {
		t.Errorf("ALAP step of y = %d, want 4", alap.Step[yID])
	}
	if _, err := d.ALAP(2); err == nil {
		t.Error("latency below ASAP should fail")
	}
}

func TestListScheduleResourceLimits(t *testing.T) {
	d := firDFG(t)
	limits := map[OpKind]int{OpMul: 1, OpAdd: 1}
	s, err := d.ListSchedule(limits)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(d, limits); err != nil {
		t.Error(err)
	}
	// One multiplier: the four multiplies serialize over >= 4 steps.
	if s.Steps < 4 {
		t.Errorf("steps = %d, want >= 4 with one multiplier", s.Steps)
	}
	// Unlimited resources should match ASAP latency.
	s2, err := d.ListSchedule(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Steps != d.ASAP().Steps {
		t.Errorf("unlimited list schedule %d steps, ASAP %d", s2.Steps, d.ASAP().Steps)
	}
}

func TestSelectModulesSlackUsesSlowModules(t *testing.T) {
	d := firDFG(t)
	lib := DefaultModules()
	// Tight deadline: fastest chain = 60 (mul) + 20 + 20 = 100.
	fast, eFast, err := SelectModules(d, lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range d.Ops {
		if op.Kind == OpMul && fast[op.ID].Name != "mul_array" {
			t.Error("tight deadline should pick the fast multiplier")
		}
	}
	// Loose deadline: everything can be slow: 140 + 45 + 45 = 230.
	_, eSlow, err := SelectModules(d, lib, 300)
	if err != nil {
		t.Fatal(err)
	}
	if eSlow >= eFast {
		t.Errorf("slack should reduce energy: %v vs %v", eSlow, eFast)
	}
	if _, _, err := SelectModules(d, lib, 10); err == nil {
		t.Error("infeasible deadline should fail")
	}
}

func TestVoltageScalingModel(t *testing.T) {
	lib := DefaultModules()
	dm, em, err := lib.ScaleVoltage(lib.Vref)
	if err != nil || math.Abs(dm-1) > 1e-9 || math.Abs(em-1) > 1e-9 {
		t.Errorf("reference voltage should scale by 1: %v %v %v", dm, em, err)
	}
	// Lower voltage: slower, less energy.
	dm2, em2, err := lib.ScaleVoltage(3.0)
	if err != nil {
		t.Fatal(err)
	}
	if dm2 <= 1 || em2 >= 1 {
		t.Errorf("V=3: delayMul %v should exceed 1, energyMul %v below 1", dm2, em2)
	}
	if math.Abs(em2-9.0/25.0) > 1e-9 {
		t.Errorf("energyMul = %v, want 0.36", em2)
	}
	if _, _, err := lib.ScaleVoltage(0.5); err == nil {
		t.Error("sub-threshold voltage should fail")
	}
	// VoltageForSlack inverts ScaleVoltage.
	v, err := lib.VoltageForSlack(dm2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-3.0) > 0.01 {
		t.Errorf("VoltageForSlack(%v) = %v, want 3.0", dm2, v)
	}
	if _, err := lib.VoltageForSlack(0.5); err == nil {
		t.Error("slack < 1 should fail")
	}
}

func TestParallelizeQuadraticWin(t *testing.T) {
	// E15 headline: at fixed throughput, processing 2 samples per
	// iteration lets the voltage drop and power fall despite doubled
	// capacitance — the quadratic win of [7].
	d := firDFG(t)
	lib := DefaultModules()
	const throughput = 5.0 // samples per µs; budget 200ns per sample
	base, err := PowerAtThroughput(d, lib, throughput, 1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Parallelize(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Check(); err != nil {
		t.Fatal(err)
	}
	par, err := PowerAtThroughput(d2, lib, throughput, 2)
	if err != nil {
		t.Fatal(err)
	}
	if par.Voltage >= base.Voltage {
		t.Errorf("parallel voltage %v should be below base %v", par.Voltage, base.Voltage)
	}
	if par.PowerUW >= base.PowerUW {
		t.Errorf("parallel power %v should beat base %v", par.PowerUW, base.PowerUW)
	}
	// Parallelization preserves function.
	in := map[string]int{}
	for i := 0; i < 4; i++ {
		in[xname(i)+"_p0"] = i + 1
		in[xname(i)+"_p1"] = 2 * (i + 1)
	}
	out, err := d2.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if out["out_p0"] != 70 || out["out_p1"] != 140 {
		t.Errorf("parallel outputs %v, want 70/140", out)
	}
	if _, err := Parallelize(d, 0); err == nil {
		t.Error("factor 0 should fail")
	}
}

func TestCorrelationAwareBinding(t *testing.T) {
	// Two multipliers shared across four products; with a correlated input
	// stream, correlation-aware binding should not switch more than
	// first-fit binding.
	d := firDFG(t)
	limits := map[OpKind]int{OpMul: 2, OpAdd: 2}
	s, err := d.ListSchedule(limits)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	traces := RandomTraces(d, r, 300, 10, true)
	bCorr, err := BindGreedyCorrelation(d, s, traces, true)
	if err != nil {
		t.Fatal(err)
	}
	bFF, err := BindGreedyCorrelation(d, s, traces, false)
	if err != nil {
		t.Fatal(err)
	}
	swCorr, err := SwitchedCapacitance(d, s, bCorr, traces)
	if err != nil {
		t.Fatal(err)
	}
	swFF, err := SwitchedCapacitance(d, s, bFF, traces)
	if err != nil {
		t.Fatal(err)
	}
	if swCorr > swFF+1e-9 {
		t.Errorf("correlation-aware binding %v switched more than first-fit %v", swCorr, swFF)
	}
	if bCorr.NumUnits[OpMul] != 2 {
		t.Errorf("mul units = %d, want 2", bCorr.NumUnits[OpMul])
	}
}

func TestMemoryLoopOrder(t *testing.T) {
	cfg := DefaultCache()
	const rows, cols = 64, 64
	row, err := MatrixTrace(rows, cols, RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	col, err := MatrixTrace(rows, cols, ColMajor)
	if err != nil {
		t.Fatal(err)
	}
	stRow, err := SimulateTrace(cfg, row)
	if err != nil {
		t.Fatal(err)
	}
	stCol, err := SimulateTrace(cfg, col)
	if err != nil {
		t.Fatal(err)
	}
	// Row-major matches layout: one miss per line; column-major thrashes.
	if stRow.Misses != rows*cols/cfg.LineWords {
		t.Errorf("row-major misses = %d, want %d", stRow.Misses, rows*cols/cfg.LineWords)
	}
	if stCol.Misses <= 4*stRow.Misses {
		t.Errorf("column-major misses %d should dwarf row-major %d", stCol.Misses, stRow.Misses)
	}
	if stCol.EnergyPJ <= stRow.EnergyPJ {
		t.Error("loop interchange should reduce memory energy")
	}
	if stRow.Accesses != stCol.Accesses || stRow.Hits <= stCol.Hits {
		t.Error("row-major hits should exceed column-major over the same accesses")
	}
}

func TestMemoryValidation(t *testing.T) {
	if _, err := SimulateTrace(CacheConfig{Words: 10, LineWords: 3}, nil); err == nil {
		t.Error("non-divisible cache config should fail")
	}
	if _, err := SimulateTrace(DefaultCache(), []int{-1}); err == nil {
		t.Error("negative address should fail")
	}
	if _, err := MatrixTrace(0, 4, RowMajor); err == nil {
		t.Error("empty matrix should fail")
	}
	if _, err := MatrixTrace(4, 4, TraversalOrder(9)); err == nil {
		t.Error("unknown order should fail")
	}
}

func TestDFGCheckErrors(t *testing.T) {
	d := NewDFG("bad")
	if _, err := d.add(OpAdd, "a", 5); err == nil {
		t.Error("missing arg should fail")
	}
}
