package power

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
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
	// A capacitance model other than the default, so a dispatch that
	// dropped Spec.CapModel would show.
	fanInCap := func(nw *logic.Network, n *logic.Node) float64 {
		return UnitLoadCap(nw, n) + float64(len(n.Fanin))
	}
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
			CapModel:     fanInCap,
			InputProb:    probs,
			Vectors:      sim.RandomStimulus(r, 200, len(nw.PIs()), 0.3),
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
				return EstimateZeroDelayPacked(nw, s.Params, s.CapModel, s.Vectors.Unpack())
			},
			MethodSimulated: func() (Report, sim.Totals, error) {
				return EstimateSimulatedParallel(nw, s.Params, s.CapModel, sim.UnitDelay, s.Vectors.Unpack(), 0)
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
				samples = s.Vectors.Len()
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

// TestEstimateTracedEqualsUntraced: a simulated report carries the
// per-node transition record it was evaluated from, and that record is a
// sequential event-driven run's — cycles, transitions and useful
// transitions on every node, gate transitions summing to Totals — whether
// Estimate sharded the run or one worker simulated it; the two reports are
// equal bit for bit. An analytic report carries no record.
func TestEstimateTracedEqualsUntraced(t *testing.T) {
	comb, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	for name, nw := range map[string]*logic.Network{"mult4": comb, "fsm": fsmNetwork(t)} {
		r := rand.New(rand.NewSource(3))
		spec := Spec{Method: MethodSimulated, Params: DefaultParams(), Vectors: sim.RandomStimulus(r, 300, len(nw.PIs()), 0.5)}
		sharded, err := Estimate(context.Background(), nw, spec)
		if err != nil {
			t.Fatal(err)
		}
		one, tot, err := EstimateSimulatedParallel(nw, spec.Params, nil, sim.UnitDelay, spec.Vectors.Unpack(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(methodBody(sharded), one) || sharded.Totals != tot {
			t.Errorf("%s: sharded report differs from the one-worker report", name)
		}
		s, err := sim.New(nw, sim.UnitDelay)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(spec.Vectors); err != nil {
			t.Fatal(err)
		}
		c := sharded.Counts
		if c == nil {
			t.Fatalf("%s: simulated report carries no transition record", name)
		}
		if c.Cycles() != s.Cycles() || c.Cycles() != spec.Vectors.Len() {
			t.Errorf("%s: record has %d cycles, simulator %d, vectors %d", name, c.Cycles(), s.Cycles(), spec.Vectors.Len())
		}
		var gateTransitions int64
		for _, id := range nw.Live() {
			if c.Transitions(id) != s.Transitions(id) || c.UsefulTransitions(id) != s.UsefulTransitions(id) {
				t.Errorf("%s: node %s record %d/%d, simulator %d/%d", name, nw.Node(id).Name,
					c.Transitions(id), c.UsefulTransitions(id), s.Transitions(id), s.UsefulTransitions(id))
			}
			if typ := nw.Node(id).Type; typ != logic.Input && typ != logic.DFF {
				gateTransitions += c.Transitions(id)
			}
		}
		if gateTransitions != sharded.Totals.Transitions || gateTransitions == 0 {
			t.Errorf("%s: record has %d gate transitions, totals %d", name, gateTransitions, sharded.Totals.Transitions)
		}
		spec.Method = MethodDensity
		analytic, err := Estimate(context.Background(), nw, spec)
		if err != nil {
			t.Fatal(err)
		}
		if analytic.Counts != nil {
			t.Errorf("%s: density report carries a transition record", name)
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
// first k calls, safe to poll from every shard of a sharded run.
type cancelAfter struct {
	context.Context
	k     int32
	calls atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.k {
		return context.Canceled
	}
	return nil
}

// TestEstimateSimulatedCancel: a simulated run whose context is cancelled
// after it starts stops early with the context's error; the sim.cycles
// counter proves the run was partial.
func TestEstimateSimulatedCancel(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.Enable()
	defer obsv.Disable()
	cycles := reg.Counter("sim.cycles")
	r := rand.New(rand.NewSource(3))
	spec := Spec{Method: MethodSimulated, Params: DefaultParams(), Vectors: sim.RandomStimulus(r, 1000, len(nw.PIs()), 0.5)}
	if _, err := Estimate(context.Background(), nw, spec); err != nil {
		t.Fatal(err)
	}
	total := cycles.Value()
	if total != int64(spec.Vectors.Len()) {
		t.Fatalf("full run counted %d cycles, want %d", total, spec.Vectors.Len())
	}
	if _, err := Estimate(&cancelAfter{Context: context.Background(), k: 2}, nw, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial := cycles.Value() - total; partial == 0 || partial >= total {
		t.Errorf("cancelled run simulated %d cycles, full run %d: want a partial run", partial, total)
	}
}

// piActivityRows is the row-major count piActivity had before it read
// packed stimulus words, kept as its oracle: it walks the stream one
// vector at a time, counting each input's toggles against the previous
// vector (the first against the all-zero reset) without a branch.
func piActivityRows(nw *logic.Network, vectors [][]bool) []float64 {
	pis := nw.PIs()
	act := make([]float64, nw.NumNodes())
	if len(vectors) == 0 {
		return act
	}
	toggles := make([]int, len(pis))
	prev := make([]bool, len(pis))
	for _, v := range vectors {
		v = v[:len(pis)]
		for i, b := range v {
			toggles[i] += logic.Bit(b != prev[i])
		}
		prev = v
	}
	for i, pi := range pis {
		act[pi] = float64(toggles[i]) / float64(len(vectors))
	}
	return act
}

// mustPack packs a test's vector stream.
func mustPack(t testing.TB, vectors [][]bool) sim.Stimulus {
	t.Helper()
	st, err := sim.PackVectors(vectors)
	if err != nil {
		t.Fatal(err)
	}
	return st
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

// TestPIActivityMatchesPerInputOracle compares the packed-word count with
// the per-input and row-major oracles, bit for bit, at widths and stream
// lengths on both sides of a 64-bit word; every slot that is not an input
// stays 0.
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
			got, want := piActivity(nw, mustPack(t, vecs)), piActivityPerInput(nw, vecs)
			if len(got) != nw.NumNodes() || got[k] != 0 {
				t.Fatalf("width %d, %d vectors: %d slots, constant slot %v", width, n, len(got), got[k])
			}
			if rows := piActivityRows(nw, vecs); !reflect.DeepEqual(got, rows) {
				t.Errorf("width %d, %d vectors: %v, row-major oracle %v", width, n, got, rows)
			}
			for _, pi := range nw.PIs() {
				if got[pi] != want[pi] {
					t.Errorf("width %d, %d vectors, input %d: %v, oracle %v", width, n, pi, got[pi], want[pi])
				}
			}
		}
	}
}

// TestEstimateWidthMismatch: the packed and simulated methods return an
// error, not a panic, when the vectors do not match the network's inputs —
// through Estimate, and through the [][]bool wrappers, sharded or not,
// with narrow or ragged rows.
func TestEstimateWidthMismatch(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	narrow := sim.RandomVectors(r, 1000, len(nw.PIs())-1, 0.5)
	ragged := sim.RandomVectors(r, 1000, len(nw.PIs()), 0.5)
	ragged[700] = ragged[700][:3]
	for _, m := range []Method{MethodPacked, MethodSimulated} {
		spec := Spec{Method: m, Params: DefaultParams(), Vectors: mustPack(t, narrow)}
		if _, err := Estimate(context.Background(), nw, spec); err == nil {
			t.Errorf("%s: Estimate accepted %d-bit vectors on a %d-input network", m, spec.Vectors.Width(), len(nw.PIs()))
		}
	}
	for name, vecs := range map[string][][]bool{"narrow": narrow, "ragged": ragged} {
		if _, _, err := EstimateZeroDelayPacked(nw, DefaultParams(), nil, vecs); err == nil {
			t.Errorf("%s: EstimateZeroDelayPacked accepted the vectors", name)
		}
		for _, workers := range []int{1, 2, 4} {
			if _, _, err := EstimateSimulatedParallel(nw, DefaultParams(), nil, sim.UnitDelay, vecs, workers); err == nil {
				t.Errorf("%s: EstimateSimulatedParallel with %d workers accepted the vectors", name, workers)
			}
		}
	}
}
