package gating

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/encode"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stg"
)

func TestGatedFSMFunctionallyIdentical(t *testing.T) {
	for name, g := range stg.Corpus() {
		e := encode.MinimalBinary(g)
		base, err := encode.Synthesize(g, e)
		if err != nil {
			t.Fatal(err)
		}
		gated, err := GateSelfLoops(g, e)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := gated.Network.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if gated.GatingGates <= 0 {
			t.Errorf("%s: no gating logic added", name)
		}
		// Drive both for many cycles.
		r := rand.New(rand.NewSource(3))
		s1 := logic.NewState(base)
		s2 := logic.NewState(gated.Network)
		for c := 0; c < 500; c++ {
			in := make([]bool, g.NumInputs)
			for i := range in {
				in[i] = r.Intn(2) == 1
			}
			o1, err1 := s1.Step(in)
			o2, err2 := s2.Step(in)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			for i := range o1 {
				if o1[i] != o2[i] {
					t.Fatalf("%s cycle %d: gated FSM diverged", name, c)
				}
			}
		}
	}
}

func TestEnableTracksSelfLoops(t *testing.T) {
	// On the idler machine, EN must be false exactly when the STG takes a
	// self-loop.
	g := stg.Corpus()["idler"]
	e := encode.MinimalBinary(g)
	gated, err := GateSelfLoops(g, e)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([][]bool, 400)
	r := rand.New(rand.NewSource(5))
	for c := range vecs {
		vecs[c] = make([]bool, g.NumInputs)
		for i := range vecs[c] {
			vecs[c][i] = r.Intn(2) == 1
		}
	}
	st, err := sim.PackVectors(vecs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.NewStream(gated.Network)
	if err != nil {
		t.Fatal(err)
	}
	// The stream shows EN settled before the clock edge.
	state, c := g.Reset, 0
	err = s.Run(context.Background(), st, func(val []bool) {
		next, _, ok := g.Next(state, vecs[c])
		if !ok {
			t.Fatal("missing transition")
		}
		if en := val[gated.Enable]; (next == state) == en {
			t.Fatalf("cycle %d: state %s -> %s but EN=%v", c, state, next, en)
		}
		state = next
		c++
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatingSavesClockPowerOnIdleMachine(t *testing.T) {
	// E12 shape: on the idle-heavy machine, gating cuts total power; the
	// clock term shrinks by the self-loop fraction.
	g := stg.Corpus()["idler"]
	e := encode.MinimalBinary(g)
	base, err := encode.Synthesize(g, e)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := GateSelfLoops(g, e)
	if err != nil {
		t.Fatal(err)
	}
	p := power.DefaultParams()
	const clockCap = 4.0
	repBase, err := MeasureClockPower(base, logic.InvalidNode, nil, rand.New(rand.NewSource(7)), 4000, p, clockCap, nil)
	if err != nil {
		t.Fatal(err)
	}
	repGated, err := MeasureClockPower(gated.Network, gated.Enable, gated.HoldMuxes, rand.New(rand.NewSource(7)), 4000, p, clockCap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if repBase.EnableFraction != 1.0 {
		t.Errorf("ungated enable fraction = %v, want 1", repBase.EnableFraction)
	}
	if repGated.EnableFraction > 0.7 {
		t.Errorf("idler enable fraction = %v, expected well under 1", repGated.EnableFraction)
	}
	if repGated.ClockPower >= repBase.ClockPower {
		t.Errorf("gated clock power %v should beat ungated %v", repGated.ClockPower, repBase.ClockPower)
	}
	// On a machine this small the activation logic can eat the clock
	// saving (the survey's caveat); the total-power win is demonstrated on
	// the register bank below and in the break-even test.
}

func TestRegisterBankGatingWins(t *testing.T) {
	// The survey's register-file example: a 16-bit register loaded 10%% of
	// cycles. Gating the clock beats load-enable recirculation.
	rb, err := BuildRegisterBank(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Network.Check(); err != nil {
		t.Fatal(err)
	}
	p := power.DefaultParams()
	const clockCap = 2.0
	prob := make([]float64, len(rb.Network.PIs()))
	for i := range prob {
		prob[i] = 0.5
	}
	prob[0] = 0.1 // load line is PI 0
	ungated, err := MeasureClockPower(rb.Network, logic.InvalidNode, nil,
		rand.New(rand.NewSource(17)), 4000, p, clockCap, prob)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := MeasureClockPower(rb.Network, rb.Load, rb.HoldMuxes,
		rand.New(rand.NewSource(17)), 4000, p, clockCap, prob)
	if err != nil {
		t.Fatal(err)
	}
	if gated.EnableFraction < 0.05 || gated.EnableFraction > 0.15 {
		t.Errorf("enable fraction = %v, want ~0.1", gated.EnableFraction)
	}
	if gated.Total() >= ungated.Total() {
		t.Errorf("gated register bank %v should beat load-enable muxing %v",
			gated.Total(), ungated.Total())
	}
	// Savings should be substantial (clock mostly off + mux power gone).
	if gated.Total() > 0.7*ungated.Total() {
		t.Errorf("saving too small: %v vs %v", gated.Total(), ungated.Total())
	}
	// Functional sanity: the register holds when load=0.
	st := logic.NewState(rb.Network)
	in := make([]bool, 17)
	in[0] = true // load
	for b := 0; b < 16; b++ {
		in[1+b] = b%3 == 0
	}
	if _, err := st.Step(in); err != nil {
		t.Fatal(err)
	}
	loaded := make([]bool, 16)
	for b, ff := range rb.Network.FFs() {
		loaded[b] = st.Value(ff)
	}
	in[0] = false
	for b := range loaded {
		in[1+b] = !loaded[b] // change the bus; register must not follow
	}
	if _, err := st.Step(in); err != nil {
		t.Fatal(err)
	}
	for b, ff := range rb.Network.FFs() {
		if st.Value(ff) != loaded[b] {
			t.Fatalf("bit %d did not hold with load=0", b)
		}
	}
}

func TestBuildRegisterBankValidation(t *testing.T) {
	if _, err := BuildRegisterBank(0); err == nil {
		t.Error("zero-width bank should fail")
	}
}

func TestGatingBreakEven(t *testing.T) {
	// With a tiny clock capacitance the gating overhead (activation logic
	// + hold muxes) can outweigh the clock saving — the survey's implicit
	// break-even. Verify the crossover exists: gating wins at high clock
	// cap and loses (or wins less) at low clock cap.
	g := stg.Corpus()["idler"]
	e := encode.MinimalBinary(g)
	base, err := encode.Synthesize(g, e)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := GateSelfLoops(g, e)
	if err != nil {
		t.Fatal(err)
	}
	p := power.DefaultParams()
	saving := func(clockCap float64) float64 {
		rb, err := MeasureClockPower(base, logic.InvalidNode, nil, rand.New(rand.NewSource(9)), 3000, p, clockCap, nil)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := MeasureClockPower(gated.Network, gated.Enable, gated.HoldMuxes, rand.New(rand.NewSource(9)), 3000, p, clockCap, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rb.Total() - rg.Total()
	}
	lo := saving(0.05)
	hi := saving(8.0)
	if hi <= lo {
		t.Errorf("saving should grow with clock capacitance: lo=%v hi=%v", lo, hi)
	}
	if hi <= 0 {
		t.Errorf("gating should win at high clock capacitance, saving %v", hi)
	}
}

// TestMeasureClockPowerShortRuns: with fewer than two cycles no transition
// is counted, so logic power is leakage alone, and with no cycles the
// enable fraction is 0 — never NaN.
func TestMeasureClockPowerShortRuns(t *testing.T) {
	bank, err := BuildRegisterBank(4)
	if err != nil {
		t.Fatal(err)
	}
	nw := bank.Network
	p := power.DefaultParams()
	idle := power.Evaluate(nw, p, nil, func(logic.NodeID) float64 { return 0 }).Total()
	for _, cycles := range []int{0, 1, 2} {
		rep, err := MeasureClockPower(nw, bank.Load, bank.HoldMuxes, rand.New(rand.NewSource(1)), cycles, p, 2.0, nil)
		if err != nil {
			t.Fatal(err)
		}
		f := rep.EnableFraction
		if math.IsNaN(f) || f < 0 || f > 1 || (cycles == 0 && f != 0) {
			t.Errorf("%d cycles: enable fraction %v", cycles, f)
		}
		if math.IsNaN(rep.Total()) || (cycles < 2 && rep.LogicPower != idle) {
			t.Errorf("%d cycles: logic power %v, total %v", cycles, rep.LogicPower, rep.Total())
		}
	}
}
