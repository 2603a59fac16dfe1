package power

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// TestEstimateExactCtxUnbudgetedIdentical is the acceptance bit-identity
// check: a budget that is never hit must produce exactly the report the
// unbudgeted estimator produces.
func TestEstimateExactCtxUnbudgetedIdentical(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	plain, err := Estimate(context.Background(), nw, Spec{Method: MethodExact, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	big, err := EstimateExactCtx(context.Background(), nw, p, nil, nil,
		ExactOptions{Budget: bdd.Budget{MaxNodes: 1 << 22, MaxSteps: 1 << 42}})
	if err != nil {
		t.Fatal(err)
	}
	if big.Degraded {
		t.Fatal("generous budget degraded to Monte Carlo")
	}
	if plain.Total() != big.Total() || plain.Switching != big.Switching {
		t.Fatalf("budgeted (unhit) report differs: %v vs %v", plain, big)
	}
	if len(plain.Nodes) != len(big.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(plain.Nodes), len(big.Nodes))
	}
	for i := range plain.Nodes {
		if plain.Nodes[i] != big.Nodes[i] {
			t.Fatalf("node %d differs: %+v vs %+v", i, plain.Nodes[i], big.Nodes[i])
		}
	}
}

func TestEstimateExactCtxDegradesOnTinyBudget(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.Enable()
	defer obsv.Disable()
	p := DefaultParams()
	rep, err := EstimateExactCtx(context.Background(), nw, p, nil, nil,
		ExactOptions{Budget: bdd.Budget{MaxNodes: 16}, MCVectors: 512})
	if err != nil {
		t.Fatalf("tiny budget must degrade, not fail: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("Degraded flag not set under a 16-node budget")
	}
	if rep.DegradeReason == "" {
		t.Fatal("DegradeReason empty")
	}
	if rep.Total() <= 0 {
		t.Fatalf("degraded report has non-positive power %v", rep.Total())
	}
	if got := reg.Counter("power.exact.degraded").Value(); got != 1 {
		t.Fatalf("power.exact.degraded = %d, want 1", got)
	}
	// The degraded estimate is still in the right ballpark: within 3x of
	// the exact answer on this well-conditioned circuit.
	exact, err := Estimate(context.Background(), nw, Spec{Method: MethodExact, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := rep.Total() / exact.Total(); ratio < 1/3.0 || ratio > 3.0 {
		t.Fatalf("degraded/exact power ratio %.2f out of range", ratio)
	}
}

func TestEstimateExactCtxDegradedDeterministic(t *testing.T) {
	nw, err := circuits.CLAAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	opt := ExactOptions{Budget: bdd.Budget{MaxSteps: 32}, MCVectors: 256, MCSeed: 7}
	a, err := EstimateExactCtx(context.Background(), nw, p, nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateExactCtx(context.Background(), nw, p, nil, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Degraded || !b.Degraded {
		t.Fatal("32-step budget did not degrade")
	}
	if a.Total() != b.Total() {
		t.Fatalf("degraded reports not reproducible: %v vs %v", a.Total(), b.Total())
	}
}

// TestEstimateExactCtxSequentialDegrades exercises the scalar sequential
// fallback path: flip-flops rule out the packed engine.
func TestEstimateExactCtxSequentialDegrades(t *testing.T) {
	nw := seqDegradeNetwork(t)
	rep, err := EstimateExactCtx(context.Background(), nw, DefaultParams(), nil, nil,
		ExactOptions{Budget: bdd.Budget{MaxSteps: 2}, MCVectors: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("sequential network did not degrade under a 2-step budget")
	}
	if rep.Total() <= 0 {
		t.Fatalf("degraded sequential report has power %v", rep.Total())
	}
}

// TestEstimateExactSequentialFallbackCancel: the exact method over a
// 1-node budget on a sequential network stops inside the Monte Carlo
// fallback when the context is cancelled there, with the context's error
// and no report. The context turns at the last Err call an uncancelled
// estimate makes, which comes after the BDD build has tripped.
func TestEstimateExactSequentialFallbackCancel(t *testing.T) {
	nw := seqDegradeNetwork(t)
	spec := Spec{Method: MethodExact, Params: DefaultParams(), ExactOptions: ExactOptions{Budget: bdd.Budget{MaxNodes: 1}}}
	count := &cancelAfter{Context: context.Background(), k: math.MaxInt32}
	if rep, err := Estimate(count, nw, spec); err != nil || !rep.Degraded {
		t.Fatalf("uncancelled estimate: degraded %v, err %v; want a degraded report", rep.Degraded, err)
	}
	rep, err := Estimate(&cancelAfter{Context: context.Background(), k: count.calls.Load() - 1}, nw, spec)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "Monte Carlo fallback failed") {
		t.Fatalf("err = %v, want context.Canceled from the Monte Carlo fallback", err)
	}
	if !reflect.DeepEqual(rep, Report{}) {
		t.Errorf("cancelled estimate returned a report: %+v", rep)
	}
}

// seqDegradeNetwork is an XOR cone through one flip-flop: flip-flops rule
// out the packed engine, so a tripped budget falls back to the stream.
func seqDegradeNetwork(t *testing.T) *logic.Network {
	t.Helper()
	nw := logic.New("seqdeg")
	var ins []logic.NodeID
	for i := 0; i < 4; i++ {
		ins = append(ins, nw.MustInput([]string{"a", "b", "c", "d"}[i]))
	}
	x1 := nw.MustGate("x1", logic.Xor, ins[0], ins[1])
	x2 := nw.MustGate("x2", logic.Xor, x1, ins[2])
	ff, err := nw.AddDFF("ff", x2, false)
	if err != nil {
		t.Fatal(err)
	}
	x3 := nw.MustGate("x3", logic.Xor, ff, ins[3])
	if err := nw.MarkOutput(x3); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestEstimateExactCtxHardCancellation(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Cancellation means "stop", not "degrade": the estimator must return
	// the context error instead of falling back to Monte Carlo.
	_, err = EstimateExactCtx(ctx, nw, DefaultParams(), nil, nil, ExactOptions{MCVectors: 1 << 16})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestExactProbabilitiesDeadline(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	if _, err := ExactProbabilities(ctx, nw, nil, bdd.Budget{}); err == nil {
		t.Fatal("expired deadline produced probabilities")
	}
}

// TestBudgetTripLeavesNoStickyState is the poisoned-manager regression:
// an estimate that trips its BDD budget and degrades must leave nothing
// behind — no sticky manager error, no cached partial BDD — that could
// degrade or skew a later clean estimate over the SAME network value.
// The later estimate must be exact, non-degraded, and bit-identical to
// what a process that never tripped a budget computes.
func TestBudgetTripLeavesNoStickyState(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()

	// Reference from a pristine path, before any budget trip.
	want, err := Estimate(context.Background(), nw, Spec{Method: MethodExact, Params: p})
	if err != nil {
		t.Fatal(err)
	}

	// Trip the budget hard, twice, on the same network.
	for i := 0; i < 2; i++ {
		deg, err := EstimateExactCtx(context.Background(), nw, p, nil, nil,
			ExactOptions{Budget: bdd.Budget{MaxNodes: 8}})
		if err != nil {
			t.Fatal(err)
		}
		if !deg.Degraded {
			t.Fatal("8-node budget on mult4 should degrade")
		}
	}

	// A clean (ample-budget) estimate on the same path must now be exact
	// and bit-identical to the pre-trip reference.
	got, err := EstimateExactCtx(context.Background(), nw, p, nil, nil,
		ExactOptions{Budget: bdd.Budget{MaxNodes: 1 << 22}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded {
		t.Fatal("clean estimate degraded after earlier budget trips on the same network")
	}
	if got.Total() != want.Total() || got.Switching != want.Switching {
		t.Fatalf("post-trip estimate differs from pristine: %v vs %v", got, want)
	}
	for i := range want.Nodes {
		if want.Nodes[i] != got.Nodes[i] {
			t.Fatalf("node %d differs after budget trips: %+v vs %+v", i, want.Nodes[i], got.Nodes[i])
		}
	}
}
