package power

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/sim"
)

// fsmNetwork builds a small feedback FSM (glitchy next-state logic) for
// the sequential estimator paths.
func fsmNetwork(t *testing.T) *logic.Network {
	t.Helper()
	nw := logic.New("fsm")
	x0 := nw.MustInput("x0")
	x1 := nw.MustInput("x1")
	q0, err := nw.AddDFF("q0", x0, false)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := nw.AddDFF("q1", x1, true)
	if err != nil {
		t.Fatal(err)
	}
	a := nw.MustGate("a", logic.Xor, x0, q1)
	b := nw.MustGate("b", logic.And, x1, q0)
	c := nw.MustGate("c", logic.Or, a, b)
	d0 := nw.MustGate("d0", logic.Xor, c, q0)
	d1 := nw.MustGate("d1", logic.Nand, c, a)
	if err := nw.ReplaceFanin(q0, x0, d0); err != nil {
		t.Fatal(err)
	}
	if err := nw.ReplaceFanin(q1, x1, d1); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(c); err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestEstimateSimulatedParallelByteIdentical: the [][]bool wrapper and
// Estimate's simulated method produce byte-for-byte the same report —
// same floats, same node order — on both combinational and sequential
// networks.
func TestEstimateSimulatedParallelByteIdentical(t *testing.T) {
	comb, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	for name, nw := range map[string]*logic.Network{"mult4": comb, "fsm": fsmNetwork(t)} {
		r := rand.New(rand.NewSource(29))
		vecs := sim.RandomVectors(r, 300, len(nw.PIs()), 0.5)
		p := DefaultParams()

		refRep, refTot, err := EstimateSimulatedParallel(nw, p, nil, sim.UnitDelay, vecs, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Estimate is the entry point E5/E11/E13 call.
		rep, err := Estimate(context.Background(), nw, Spec{Method: MethodSimulated, Params: p, Vectors: mustPack(t, vecs)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := fmt.Sprintf("%+v %+v", methodBody(rep), rep.Totals), fmt.Sprintf("%+v %+v", refRep, refTot); got != want {
			t.Errorf("%s: Estimate differs from EstimateSimulatedParallel", name)
		}
	}
}

// TestEstimateSimulatedParallelRejectsNonUnitDelay: the wrapper refuses a
// delay model that gives a gate any delay but 1, with the error
// sim.MeasureRunCtx returns, and takes nil as unit delay.
func TestEstimateSimulatedParallelRejectsNonUnitDelay(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(2)
	if err != nil {
		t.Fatal(err)
	}
	vecs := sim.RandomVectors(rand.New(rand.NewSource(3)), 8, len(nw.PIs()), 0.5)
	slow := func(*logic.Node) int { return 2 }
	_, _, err = EstimateSimulatedParallel(nw, DefaultParams(), nil, slow, vecs, 0)
	_, want := sim.MeasureRunCtx(context.Background(), nw, slow, vecs, 0)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("delay 2: err = %v, want %v", err, want)
	}
	if _, _, err := EstimateSimulatedParallel(nw, DefaultParams(), nil, nil, vecs, 0); err != nil {
		t.Fatalf("nil delay model should default to unit delay: %v", err)
	}
}

// TestEstimateZeroDelayPackedMatchesScalar: the packed fast path produces
// exactly the report of a scalar zero-delay estimate (useful activity of
// the event-driven simulator, PI activity from the vector stream).
func TestEstimateZeroDelayPackedMatchesScalar(t *testing.T) {
	nw, err := circuits.CLAAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	vecs := sim.RandomVectors(r, 200, len(nw.PIs()), 0.5)
	p := DefaultParams()

	prep, ptot, err := EstimateZeroDelayPacked(nw, p, nil, vecs)
	if err != nil {
		t.Fatal(err)
	}

	s, err := sim.New(nw)
	if err != nil {
		t.Fatal(err)
	}
	stot, err := s.Run(mustPack(t, vecs))
	if err != nil {
		t.Fatal(err)
	}
	piAct := piActivity(nw, mustPack(t, vecs))
	want := Evaluate(nw, p, nil, func(id logic.NodeID) float64 {
		if nw.Node(id).Type == logic.Input {
			return piAct[id]
		}
		return float64(s.UsefulTransitions(id)) / float64(s.Cycles())
	})
	if !reflect.DeepEqual(prep, want) {
		t.Error("packed report differs from scalar useful-activity report")
	}
	if ptot.Useful != stot.Useful {
		t.Errorf("packed useful total %d, event-driven %d", ptot.Useful, stot.Useful)
	}
	if ptot.Spurious != 0 {
		t.Errorf("packed spurious total %d, want 0 (zero delay)", ptot.Spurious)
	}

	// Sequential networks must be rejected, not silently mis-measured.
	if _, _, err := EstimateZeroDelayPacked(fsmNetwork(t), p, nil, [][]bool{{false, false}}); err == nil {
		t.Error("EstimateZeroDelayPacked accepted a sequential network")
	}
}

func TestShardSeedDecorrelation(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for i := 0; i < 64; i++ {
			s := ShardSeed(seed, i)
			if seen[s] {
				t.Fatalf("ShardSeed collision at seed=%d i=%d", seed, i)
			}
			seen[s] = true
			if s2 := ShardSeed(seed, i); s2 != s {
				t.Fatalf("ShardSeed not deterministic at seed=%d i=%d", seed, i)
			}
		}
	}
}
