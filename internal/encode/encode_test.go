package encode

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/stg"
)

func allEncoders(g *stg.STG, r *rand.Rand) map[string]Encoding {
	return map[string]Encoding{
		"binary": MinimalBinary(g),
		"gray":   Gray(g),
		"onehot": OneHot(g),
		"greedy": Greedy(g),
		"anneal": Anneal(g, r, AnnealOptions{Iterations: 8000}),
	}
}

func TestEncodingsValid(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for name, g := range stg.Corpus() {
		for enc, e := range allEncoders(g, r) {
			if err := e.Validate(g); err != nil {
				t.Errorf("%s/%s: %v", name, enc, err)
			}
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	g := stg.New("v", 1, 1)
	g.AddEdge("1", "a", "b", "0")
	e := Encoding{Bits: 1, Code: map[string]uint{"a": 0}}
	if err := e.Validate(g); err == nil {
		t.Error("missing code should fail")
	}
	e = Encoding{Bits: 1, Code: map[string]uint{"a": 0, "b": 0}}
	if err := e.Validate(g); err == nil {
		t.Error("duplicate code should fail")
	}
	e = Encoding{Bits: 1, Code: map[string]uint{"a": 0, "b": 5}}
	if err := e.Validate(g); err == nil {
		t.Error("out-of-range code should fail")
	}
}

func TestGrayBeatsBinaryOnCounter(t *testing.T) {
	g := stg.Corpus()["count8"]
	wb := WeightedActivity(g, MinimalBinary(g))
	wg := WeightedActivity(g, Gray(g))
	if wg >= wb {
		t.Errorf("gray activity %v should beat binary %v on a counter", wg, wb)
	}
	// Gray counter: exactly one bit flips per counted step; expected
	// toggles = P(count) * 1 = 0.5.
	if math.Abs(wg-0.5) > 1e-9 {
		t.Errorf("gray weighted activity = %v, want 0.5", wg)
	}
}

func TestOneHotActivityIsTwoPerTransition(t *testing.T) {
	g := stg.Corpus()["count8"]
	w := WeightedActivity(g, OneHot(g))
	// Every state change flips exactly 2 flip-flops; transitions happen
	// with probability 0.5 per cycle.
	if math.Abs(w-1.0) > 1e-9 {
		t.Errorf("one-hot weighted activity = %v, want 1.0", w)
	}
}

func TestOptimizersBeatBinary(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, name := range []string{"count8", "traffic", "arbiter", "det1101", "idler"} {
		g := stg.Corpus()[name]
		wb := WeightedActivity(g, MinimalBinary(g))
		wgreedy := WeightedActivity(g, Greedy(g))
		wann := WeightedActivity(g, Anneal(g, r, AnnealOptions{Iterations: 8000}))
		if wgreedy > wb+1e-9 {
			t.Errorf("%s: greedy %v worse than binary %v", name, wgreedy, wb)
		}
		if wann > wgreedy+1e-9 {
			t.Errorf("%s: anneal %v worse than its greedy start %v", name, wann, wgreedy)
		}
	}
}

// driveBoth steps the STG and the synthesized network together and
// compares outputs.
func driveBoth(t *testing.T, g *stg.STG, e Encoding, nw *logic.Network, cycles int, r *rand.Rand) {
	t.Helper()
	st := logic.NewState(nw)
	state := g.Reset
	for c := 0; c < cycles; c++ {
		in := make([]bool, g.NumInputs)
		for i := range in {
			in[i] = r.Intn(2) == 1
		}
		// Check the decoded register state matches before clocking.
		if got := StateOf(g, e, nw, st); got != state {
			t.Fatalf("cycle %d: register decodes to %q, STG in %q", c, got, state)
		}
		next, wantOut, ok := g.Next(state, in)
		if !ok {
			t.Fatalf("cycle %d: STG has no transition", c)
		}
		gotOut, err := st.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantOut {
			if gotOut[i] != wantOut[i] {
				t.Fatalf("cycle %d output %d: network %v, STG %v (state %s)", c, i, gotOut[i], wantOut[i], state)
			}
		}
		state = next
	}
}

func TestSynthesizeMatchesSTG(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for name, g := range stg.Corpus() {
		for encName, e := range allEncoders(g, r) {
			nw, err := Synthesize(g, e)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, encName, err)
			}
			if err := nw.Check(); err != nil {
				t.Fatalf("%s/%s: %v", name, encName, err)
			}
			if len(nw.FFs()) != e.Bits {
				t.Fatalf("%s/%s: %d FFs, want %d", name, encName, len(nw.FFs()), e.Bits)
			}
			driveBoth(t, g, e, nw, 200, r)
		}
	}
}

func TestLowPowerEncodingReducesFFActivity(t *testing.T) {
	// E8 shape: measure real flip-flop toggles on the synthesized networks;
	// the annealed encoding should beat minimal binary.
	r := rand.New(rand.NewSource(21))
	g := stg.Corpus()["count8"]
	measure := func(e Encoding) float64 {
		nw, err := Synthesize(g, e)
		if err != nil {
			t.Fatal(err)
		}
		st := logic.NewState(nw)
		prev := make([]bool, len(nw.FFs()))
		toggles := 0
		const cycles = 3000
		rr := rand.New(rand.NewSource(99))
		for c := 0; c < cycles; c++ {
			in := []bool{rr.Intn(2) == 1}
			if _, err := st.Step(in); err != nil {
				t.Fatal(err)
			}
			for i, ff := range nw.FFs() {
				v := st.Value(ff)
				if v != prev[i] {
					toggles++
				}
				prev[i] = v
			}
		}
		return float64(toggles) / cycles
	}
	binary := measure(MinimalBinary(g))
	annealed := measure(Anneal(g, r, AnnealOptions{Iterations: 8000}))
	if annealed > binary+1e-9 {
		t.Errorf("annealed FF activity %v worse than binary %v", annealed, binary)
	}
	// Predicted weighted activity should approximate the measurement.
	predicted := WeightedActivity(g, MinimalBinary(g))
	if predicted < 0.5*binary || predicted > 2*binary {
		t.Errorf("predicted activity %v far from measured %v", predicted, binary)
	}
}

func TestSynthesizedPowerComparison(t *testing.T) {
	// Whole-network power: low-activity encodings should not lose badly to
	// binary (they may pay some combinational logic; FF savings dominate on
	// counters).
	g := stg.Corpus()["count8"]
	r := rand.New(rand.NewSource(31))
	p := power.DefaultParams()
	est := func(e Encoding) float64 {
		nw, err := Synthesize(g, e)
		if err != nil {
			t.Fatal(err)
		}
		probs, err := power.SequentialProbabilities(nw, r, 2000, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := power.Estimate(context.Background(), nw, power.Spec{Method: power.MethodExact, Params: p, InputProb: probs})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Total()
	}
	pb := est(MinimalBinary(g))
	pg := est(Gray(g))
	if pg > pb*1.1 {
		t.Errorf("gray-encoded counter power %v much worse than binary %v", pg, pb)
	}
}

func TestMinBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4}
	for n, want := range cases {
		if got := minBits(n); got != want {
			t.Errorf("minBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestReEncodeGateLevelCircuit(t *testing.T) {
	// Build a 2-bit counter at gate level, re-encode it with Gray codes
	// ([18]'s flow), and verify behaviour and reduced FF switching.
	nw := logic.New("cnt")
	en := nw.MustInput("en")
	c0, _ := nw.AddConst("c0", false)
	c1, _ := nw.AddConst("c1", false)
	q0, err := nw.AddDFF("q0", c0, false)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := nw.AddDFF("q1", c1, false)
	if err != nil {
		t.Fatal(err)
	}
	d0 := nw.MustGate("d0", logic.Xor, en, q0)
	carry := nw.MustGate("carry", logic.And, en, q0)
	d1 := nw.MustGate("d1", logic.Xor, carry, q1)
	if err := nw.ReplaceFanin(q0, c0, d0); err != nil {
		t.Fatal(err)
	}
	if err := nw.ReplaceFanin(q1, c1, d1); err != nil {
		t.Fatal(err)
	}
	nw.DeleteNode(c0)
	nw.DeleteNode(c1)
	if err := nw.MarkOutput(q1); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(q0); err != nil {
		t.Fatal(err)
	}

	re, g, err := ReEncode(nw, 0, 0, Gray)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Check(); err != nil {
		t.Fatal(err)
	}
	if len(g.States) != 4 {
		t.Fatalf("extracted %d states", len(g.States))
	}
	// Behavioural equivalence from reset.
	s1, s2 := logic.NewState(nw), logic.NewState(re)
	for c := 0; c < 300; c++ {
		in := []bool{c%3 != 0}
		o1, err1 := s1.Step(in)
		o2, err2 := s2.Step(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("cycle %d: re-encoded circuit diverged", c)
			}
		}
	}
	// Gray re-encoding of a counter lowers expected FF switching.
	wGray := WeightedActivity(g, Gray(g))
	wBin := WeightedActivity(g, MinimalBinary(g))
	if wGray >= wBin {
		t.Errorf("gray re-encoding activity %v should beat binary %v", wGray, wBin)
	}
}
