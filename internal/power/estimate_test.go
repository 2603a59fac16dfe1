package power

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/sim"
)

// methodBody strips the fields Estimate adds, leaving what the method body
// it dispatched to returned.
func methodBody(rep Report) Report {
	rep.Method, rep.Samples, rep.Totals = "", 0, sim.Totals{}
	return rep
}

// dispatchCase is one network under one Spec for the dispatch table.
type dispatchCase struct {
	name string
	nw   *logic.Network
	spec Spec
}

// dispatchCases covers every generator with at most 16 primary inputs, a
// sequential FSM, and a comparator whose exact estimate trips its budget.
// Inputs are biased so the density method's 2·p·(1−p) sources differ
// from the uniform default.
func dispatchCases(t *testing.T) []dispatchCase {
	t.Helper()
	var cases []dispatchCase
	add := func(name string, nw *logic.Network, opt ExactOptions) {
		probs := Probabilities{}
		for _, pi := range nw.PIs() {
			probs[pi] = 0.3
		}
		r := rand.New(rand.NewSource(11))
		cases = append(cases, dispatchCase{name, nw, Spec{
			Params:       DefaultParams(),
			CapModel:     WeightedGateCap,
			InputProb:    probs,
			Vectors:      sim.RandomVectors(r, 200, len(nw.PIs()), 0.3),
			ExactOptions: opt,
		}})
	}
	for _, name := range circuits.GeneratorNames() {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(nw.PIs()) <= 16 {
			add(name, nw, ExactOptions{})
		}
	}
	add("fsm", fsmNetwork(t), ExactOptions{})
	cmp16, err := circuits.Comparator(16)
	if err != nil {
		t.Fatal(err)
	}
	add("cmp16-tripped", cmp16, ExactOptions{Budget: bdd.Budget{MaxNodes: 16}, MCVectors: 300, MCSeed: 5})
	return cases
}

// TestEstimateDispatchEquivalence: for every method, Estimate returns the
// Eqn. 1 fields of the method body it dispatches to bit for bit, and fills
// Method, Samples and Totals.
func TestEstimateDispatchEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, c := range dispatchCases(t) {
		nw, s := c.nw, c.spec
		bodies := map[Method]func() (Report, sim.Totals, error){
			MethodExact: func() (Report, sim.Totals, error) {
				rep, err := EstimateExactCtx(ctx, nw, s.Params, s.CapModel, s.InputProb, s.ExactOptions)
				return rep, sim.Totals{}, err
			},
			MethodPropagated: func() (Report, sim.Totals, error) {
				rep, err := EstimatePropagated(nw, s.Params, s.CapModel, s.InputProb)
				return rep, sim.Totals{}, err
			},
			MethodDensity: func() (Report, sim.Totals, error) {
				inDens := map[logic.NodeID]float64{}
				for _, src := range append(append([]logic.NodeID(nil), nw.PIs()...), nw.FFs()...) {
					p, ok := s.InputProb[src]
					if !ok {
						p = 0.5
					}
					inDens[src] = 2 * p * (1 - p)
				}
				dens, err := TransitionDensities(ctx, nw, inDens, s.InputProb, s.Budget)
				if err != nil {
					return Report{}, sim.Totals{}, err
				}
				return Evaluate(nw, s.Params, s.CapModel, func(id logic.NodeID) float64 { return dens[id] }), sim.Totals{}, nil
			},
			MethodPacked: func() (Report, sim.Totals, error) {
				return EstimateZeroDelayPacked(nw, s.Params, s.CapModel, s.Vectors)
			},
			MethodSimulated: func() (Report, sim.Totals, error) {
				return EstimateSimulatedParallel(nw, s.Params, s.CapModel, sim.UnitDelay, s.Vectors, 0)
			},
		}
		for m, body := range bodies {
			want, wantTot, wantErr := body()
			s.Method = m
			got, err := Estimate(ctx, nw, s)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s/%s: Estimate err %v, method body err %v", c.name, m, err, wantErr)
			}
			if err != nil {
				continue
			}
			if got.Switching != want.Switching || got.ShortCkt != want.ShortCkt || got.Leakage != want.Leakage ||
				!reflect.DeepEqual(got.Nodes, want.Nodes) ||
				got.Degraded != want.Degraded || got.DegradeReason != want.DegradeReason {
				t.Errorf("%s/%s: Eqn. 1 fields differ from the method body", c.name, m)
			}
			if !reflect.DeepEqual(methodBody(got), want) {
				t.Errorf("%s/%s: report differs from the method body beyond Method, Samples and Totals", c.name, m)
			}
			samples := 0
			switch {
			case m == MethodPacked || m == MethodSimulated:
				samples = len(s.Vectors)
			case got.Degraded:
				samples = s.vectors()
			}
			if got.Method != m || got.Samples != samples || got.Totals != wantTot {
				t.Errorf("%s/%s: Method=%q Samples=%d Totals=%+v, want %q %d %+v",
					c.name, m, got.Method, got.Samples, got.Totals, m, samples, wantTot)
			}
		}
		if c.name == "cmp16-tripped" {
			s.Method = MethodExact
			if rep, _ := Estimate(ctx, nw, s); !rep.Degraded || rep.Samples != 300 {
				t.Errorf("cmp16 under 16 nodes: Degraded=%v Samples=%d, want true 300", rep.Degraded, rep.Samples)
			}
		}
	}
	if _, err := Estimate(ctx, fsmNetwork(t), Spec{Method: "bogus"}); err == nil {
		t.Error("Estimate accepted an unknown method")
	}
}

// countingTracer counts every transition it observes.
type countingTracer struct{ changes int }

func (c *countingTracer) BeginCycle(int)                 {}
func (c *countingTracer) Change(int, logic.NodeID, bool) { c.changes++ }
func (c *countingTracer) EndCycle(int)                   {}

// TestEstimateTracedEqualsUntraced: attaching a Tracer moves the simulated
// run onto one sequential simulator without changing any reported number.
func TestEstimateTracedEqualsUntraced(t *testing.T) {
	comb, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	for name, nw := range map[string]*logic.Network{"mult4": comb, "fsm": fsmNetwork(t)} {
		r := rand.New(rand.NewSource(3))
		spec := Spec{Method: MethodSimulated, Params: DefaultParams(), Vectors: sim.RandomVectors(r, 300, len(nw.PIs()), 0.5)}
		plain, err := Estimate(context.Background(), nw, spec)
		if err != nil {
			t.Fatal(err)
		}
		tr := &countingTracer{}
		spec.Tracer = tr
		traced, err := Estimate(context.Background(), nw, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: traced report differs from untraced", name)
		}
		if int64(tr.changes) < traced.Totals.Transitions {
			t.Errorf("%s: tracer saw %d changes, run had %d gate transitions", name, tr.changes, traced.Totals.Transitions)
		}
	}
}

// TestDensityBudget: the density method builds its BDDs under the budget.
// A small MaxNodes trips with bdd.ErrBudgetExceeded (there is no Monte
// Carlo fallback), and the zero budget reproduces the unbudgeted reference
// values bit for bit.
func TestDensityBudget(t *testing.T) {
	cmp16, err := circuits.Comparator(16)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Method: MethodDensity, Params: DefaultParams(), ExactOptions: ExactOptions{Budget: bdd.Budget{MaxNodes: 200}}}
	if _, err := Estimate(context.Background(), cmp16, spec); !errors.Is(err, bdd.ErrBudgetExceeded) {
		t.Fatalf("cmp16 under 200 nodes: err = %v, want bdd.ErrBudgetExceeded", err)
	}
	var be *bdd.BudgetError
	if _, err := TransitionDensities(context.Background(), cmp16, nil, nil, bdd.Budget{MaxNodes: 200}); !errors.As(err, &be) {
		t.Fatalf("TransitionDensities under 200 nodes: err = %v, want a *bdd.BudgetError", err)
	}

	// Reference bits of the unbudgeted density estimate on uniform inputs.
	for name, want := range map[string]struct{ total, densSum uint64 }{
		"cmp8":  {0x408fb565c28f5c29, 0x4041c18000000000},
		"mult4": {0x409b3a8f5c28f5c3, 0x40475e0000000000},
	} {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		spec.Budget = bdd.Budget{}
		rep, err := Estimate(context.Background(), nw, spec)
		if err != nil {
			t.Fatal(err)
		}
		dens, err := TransitionDensities(context.Background(), nw, nil, nil, bdd.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, id := range nw.Live() {
			sum += dens[id]
		}
		if got := math.Float64bits(rep.Total()); got != want.total {
			t.Errorf("%s: density total bits %#x, want %#x", name, got, want.total)
		}
		if got := math.Float64bits(sum); got != want.densSum {
			t.Errorf("%s: density sum bits %#x, want %#x", name, got, want.densSum)
		}
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after its
// first k calls.
type cancelAfter struct {
	context.Context
	k, calls int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls > c.k {
		return context.Canceled
	}
	return nil
}

// TestEstimateSimulatedCancel: a traced simulated run whose context is
// cancelled after it starts stops early with the context's error.
func TestEstimateSimulatedCancel(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	tr := &countingTracer{}
	spec := Spec{Method: MethodSimulated, Params: DefaultParams(), Vectors: sim.RandomVectors(r, 1000, len(nw.PIs()), 0.5), Tracer: tr}
	full, err := Estimate(context.Background(), nw, spec)
	if err != nil {
		t.Fatal(err)
	}
	total := tr.changes
	tr.changes = 0
	if _, err := Estimate(&cancelAfter{Context: context.Background(), k: 2}, nw, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if tr.changes == 0 || tr.changes >= total {
		t.Errorf("cancelled run traced %d changes, full run %d (%d transitions): want a partial run", tr.changes, total, full.Totals.Transitions)
	}
}

// piActivityPerInput is the column-major primary-input activity count
// piActivity had before it walked the stream vector by vector, kept as
// its oracle: one pass over the stream per input, branching per bit.
func piActivityPerInput(nw *logic.Network, vectors [][]bool) map[logic.NodeID]float64 {
	piAct := make(map[logic.NodeID]float64)
	if len(vectors) == 0 {
		return piAct
	}
	for i, pi := range nw.PIs() {
		tr := 0
		prev := false
		for c, v := range vectors {
			if c == 0 {
				prev = v[i]
				if prev { // initial settle from all-zero reset
					tr++
				}
				continue
			}
			if v[i] != prev {
				tr++
				prev = v[i]
			}
		}
		piAct[pi] = float64(tr) / float64(len(vectors))
	}
	return piAct
}

// TestPIActivityMatchesPerInputOracle compares the row-major count with
// the oracle, bit for bit, at widths and stream lengths on both sides of
// a 64-bit word; every slot that is not an input stays 0.
func TestPIActivityMatchesPerInputOracle(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65}
	for _, width := range sizes {
		nw := logic.New("pis")
		k, err := nw.AddConst("k", true) // a non-input slot before the inputs
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < width; i++ {
			nw.MustInput(fmt.Sprintf("i%d", i))
		}
		for _, n := range sizes {
			vecs := sim.RandomVectors(rand.New(rand.NewSource(int64(width*100+n))), n, width, 0.3)
			got, want := piActivity(nw, vecs), piActivityPerInput(nw, vecs)
			if len(got) != nw.NumNodes() || got[k] != 0 {
				t.Fatalf("width %d, %d vectors: %d slots, constant slot %v", width, n, len(got), got[k])
			}
			for _, pi := range nw.PIs() {
				if got[pi] != want[pi] {
					t.Errorf("width %d, %d vectors, input %d: %v, oracle %v", width, n, pi, got[pi], want[pi])
				}
			}
		}
	}
}
