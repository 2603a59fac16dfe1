package balance

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sim"
)

func TestFullBalanceEliminatesGlitches(t *testing.T) {
	for _, build := range []func() (*logic.Network, error){
		func() (*logic.Network, error) { return circuits.ParityChain(10) },
		func() (*logic.Network, error) { return circuits.RippleAdder(6) },
		func() (*logic.Network, error) { return circuits.ArrayMultiplier(4) },
	} {
		nw, err := build()
		if err != nil {
			t.Fatal(err)
		}
		orig := nw.Clone()
		res, err := Balance(nw, Options{MaxSkew: 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.Check(); err != nil {
			t.Fatal(err)
		}
		// Function preserved.
		eq, err := logic.Equivalent(orig, nw)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("%s: balancing changed the function", nw.Name)
		}
		// Depth preserved.
		_, d0, _ := orig.Levels()
		_, d1, _ := nw.Levels()
		if d1 != d0 {
			t.Errorf("%s: depth changed %d -> %d", nw.Name, d0, d1)
		}
		// No glitches under unit delay.
		s, err := sim.New(nw)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(19))
		tot, err := s.Run(sim.RandomStimulus(r, 300, len(nw.PIs()), 0.5))
		if err != nil {
			t.Fatal(err)
		}
		if tot.Spurious != 0 {
			t.Errorf("%s: %d spurious transitions remain after full balance (buffers=%d)",
				nw.Name, tot.Spurious, res.BuffersAdded)
		}
	}
}

func TestPartialBalanceReducesGlitches(t *testing.T) {
	mkSim := func(nw *logic.Network) sim.Totals {
		s, err := sim.New(nw)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		tot, err := s.Run(sim.RandomStimulus(r, 400, len(nw.PIs()), 0.5))
		if err != nil {
			t.Fatal(err)
		}
		return tot
	}
	base, err := circuits.ArrayMultiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	baseTot := mkSim(base)
	if baseTot.Spurious == 0 {
		t.Fatal("multiplier should glitch before balancing")
	}
	// Tightening the skew budget monotonically adds buffers and removes
	// glitches (note: buffers replicate the transitions of the nets they
	// delay, so partial balancing can exceed the unbuffered baseline's raw
	// transition count — the comparison that matters is across budgets).
	prevSpurious := int64(1) << 40
	prevBuffers := 0
	for _, skew := range []int{2, 1, 0} {
		nw, err := circuits.ArrayMultiplier(5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Balance(nw, Options{MaxSkew: skew})
		if err != nil {
			t.Fatal(err)
		}
		tot := mkSim(nw)
		if tot.Spurious > prevSpurious {
			t.Errorf("skew %d: spurious %d > looser budget's %d", skew, tot.Spurious, prevSpurious)
		}
		if res.BuffersAdded < prevBuffers {
			t.Errorf("skew %d: buffers %d < looser budget's %d", skew, res.BuffersAdded, prevBuffers)
		}
		prevSpurious = tot.Spurious
		prevBuffers = res.BuffersAdded
	}
	if prevSpurious != 0 {
		t.Errorf("full balance left %d spurious transitions", prevSpurious)
	}
}

func TestBalanceAlreadyBalanced(t *testing.T) {
	nw, err := circuits.ParityTree(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Balance(nw, Options{MaxSkew: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.BuffersAdded != 0 {
		t.Errorf("balanced tree got %d buffers", res.BuffersAdded)
	}
}

// TestBalanceRepeatedPin: a gate that reads an early signal on two pins
// gets one delay chain for both, and keeps its function.
func TestBalanceRepeatedPin(t *testing.T) {
	nw := logic.New("pins")
	a := nw.MustInput("a")
	y := nw.MustGate("y", logic.Not, nw.MustGate("x", logic.Not, a))
	if err := nw.MarkOutput(nw.MustGate("z", logic.And, a, y, a)); err != nil {
		t.Fatal(err)
	}
	want := nw.Clone()
	if res, err := Balance(nw, Options{}); err != nil || res.BuffersAdded != 2 {
		t.Fatalf("Balance = %+v, %v; want one chain of 2 buffers", res, err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if eq, err := logic.Equivalent(want, nw); err != nil || !eq {
		t.Fatalf("balancing changed the function (%v)", err)
	}
}

func TestBalanceValidation(t *testing.T) {
	nw, _ := circuits.ParityTree(4)
	if _, err := Balance(nw, Options{MaxSkew: -1}); err == nil {
		t.Error("negative skew should fail")
	}
}

func TestBalancePowerTradeoff(t *testing.T) {
	// The survey's point: balancing removes glitch power but adds buffer
	// capacitance. On a glitchy multiplier the net effect should be a
	// reduction in simulated total power.
	mk := func() *logic.Network {
		nw, err := circuits.ArrayMultiplier(5)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	p := power.DefaultParams()
	r := rand.New(rand.NewSource(29))
	vecs := sim.RandomStimulus(r, 500, 10, 0.5)

	// With minimum-size delay buffers (cap weight 0.25) balancing wins;
	// with full-size buffers (weight 1.0) the added capacitance offsets
	// the glitch savings — both outcomes are claims of the survey.
	minCap := power.BufferWeightedCap(0.25)
	fullCap := power.BufferWeightedCap(1.0)

	before := mk()
	repBmin, err := power.Estimate(context.Background(), before, power.Spec{Method: power.MethodSimulated, Params: p, CapModel: minCap, Vectors: vecs})
	if err != nil {
		t.Fatal(err)
	}
	repBfull, err := power.Estimate(context.Background(), before, power.Spec{Method: power.MethodSimulated, Params: p, CapModel: fullCap, Vectors: vecs})
	if err != nil {
		t.Fatal(err)
	}
	after := mk()
	if _, err := Balance(after, Options{MaxSkew: 0}); err != nil {
		t.Fatal(err)
	}
	repAmin, err := power.Estimate(context.Background(), after, power.Spec{Method: power.MethodSimulated, Params: p, CapModel: minCap, Vectors: vecs})
	if err != nil {
		t.Fatal(err)
	}
	repAfull, err := power.Estimate(context.Background(), after, power.Spec{Method: power.MethodSimulated, Params: p, CapModel: fullCap, Vectors: vecs})
	if err != nil {
		t.Fatal(err)
	}
	if repAmin.Totals.Spurious != 0 {
		t.Fatalf("balance left %d glitches", repAmin.Totals.Spurious)
	}
	if repBmin.Totals.Spurious == 0 {
		t.Fatal("baseline should glitch")
	}
	if repAmin.Total() >= repBmin.Total() {
		t.Errorf("min-size buffers: balanced power %.3f should beat glitchy power %.3f",
			repAmin.Total(), repBmin.Total())
	}
	if repAfull.Total() <= repBfull.Total() {
		t.Errorf("full-size buffers: expected capacitance to offset savings (%.3f vs %.3f)",
			repAfull.Total(), repBfull.Total())
	}
}
