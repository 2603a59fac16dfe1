package power

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// splitEquality builds a network whose depth-first variable order is
// pathological: the first output ORs every a_i, so the walk levels all
// the a_i before the equality output reaches any b_i, and a-before-b is
// exponential for equality. The inputs are declared interleaved (a0, b0,
// a1, b1, ...), which makes the declaration order the linear one.
func splitEquality(t *testing.T, n int) *logic.Network {
	t.Helper()
	nw := logic.New(fmt.Sprintf("spliteq%d", n))
	as := make([]logic.NodeID, n)
	xs := make([]logic.NodeID, n)
	for i := range as {
		as[i] = nw.MustInput(fmt.Sprintf("a%d", i))
		b := nw.MustInput(fmt.Sprintf("b%d", i))
		xs[i] = nw.MustGate(fmt.Sprintf("x%d", i), logic.Xnor, as[i], b)
	}
	anyA := nw.MustGate("any", logic.Or, as...)
	// A chain of two-input ANDs, so sifting can run between its gates.
	eq := xs[0]
	for i, x := range xs[1:] {
		eq = nw.MustGate(fmt.Sprintf("eq%d", i+1), logic.And, eq, x)
	}
	for _, o := range []logic.NodeID{anyA, eq} {
		if err := nw.MarkOutput(o); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

// TestEstimateExactCtxReorderRetry pins the sift rung of the degradation
// ladder: a wide circuit whose depth-first order blows a node budget
// (and would otherwise fall straight to Monte Carlo) must complete
// exactly after the reorder-retry, with Degraded=false.
func TestEstimateExactCtxReorderRetry(t *testing.T) {
	nw := splitEquality(t, 16)
	b := bdd.Budget{MaxNodes: 20000}
	// The premise: the default order cannot fit this budget.
	if _, err := bdd.FromNetworkCtx(context.Background(), nw, b); err == nil || !errors.Is(err, bdd.ErrBudgetExceeded) {
		t.Fatalf("spliteq16 unexpectedly fit a %d-node budget (err=%v)", b.MaxNodes, err)
	}
	// ... while the declaration order fits it: the order is at fault.
	if _, err := bdd.FromNetworkOpts(context.Background(), nw, bdd.BuildOptions{Budget: b, DeclarationOrder: true}); err != nil {
		t.Fatalf("declaration-order spliteq16 did not fit a %d-node budget: %v", b.MaxNodes, err)
	}

	reg := obsv.Enable()
	defer obsv.Disable()
	p := DefaultParams()
	rep, err := EstimateExactCtx(context.Background(), nw, p, nil, nil, ExactOptions{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("estimate still degraded after reorder-retry: %s", rep.DegradeReason)
	}
	if got := reg.Counter("power.exact.reordered").Value(); got != 1 {
		t.Fatalf("power.exact.reordered = %d, want 1", got)
	}
	if got := reg.Counter("power.exact.degraded").Value(); got != 0 {
		t.Fatalf("power.exact.degraded = %d, want 0", got)
	}
	if got := reg.Counter("bdd.reorder.runs").Value(); got == 0 {
		t.Fatal("bdd.reorder.runs not incremented by the retry build")
	}

	// The retried result is exact: it matches the unbudgeted estimator
	// up to floating-point reassociation from the permuted order.
	exact, err := Estimate(context.Background(), nw, Spec{Method: MethodExact, Params: p})
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(rep.Total() - exact.Total()); diff > 1e-9*exact.Total() {
		t.Fatalf("reorder-retry total %v differs from exact %v", rep.Total(), exact.Total())
	}

	// And deterministic, byte for byte: a second run must agree exactly
	// (the server caches these responses).
	rep2, err := EstimateExactCtx(context.Background(), nw, p, nil, nil, ExactOptions{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Degraded || rep2.Total() != rep.Total() {
		t.Fatalf("reorder-retry not deterministic: %v vs %v", rep2.Total(), rep.Total())
	}
}

// TestExactProbabilitiesReorderRetryValues checks the retried path
// returns per-node probabilities matching the unbudgeted computation.
func TestExactProbabilitiesReorderRetryValues(t *testing.T) {
	nw := splitEquality(t, 12)
	plain, err := ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	budget := bdd.Budget{MaxNodes: 2000}
	if _, err := bdd.FromNetworkCtx(context.Background(), nw, budget); !errors.Is(err, bdd.ErrBudgetExceeded) {
		t.Fatalf("spliteq12 unexpectedly fit %d nodes (err=%v)", budget.MaxNodes, err)
	}
	retried, err := ExactProbabilities(context.Background(), nw, nil, budget)
	if err != nil {
		t.Fatalf("reorder-retry failed: %v", err)
	}
	if len(retried) != len(plain) {
		t.Fatalf("node coverage differs: %d vs %d", len(retried), len(plain))
	}
	for id, want := range plain {
		if got := retried[id]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("node %d: probability %v vs %v", id, got, want)
		}
	}
}

// TestExactProbabilitiesNoRetryOnCancel checks a cancelled context is
// not retried: cancellation aborts the ladder outright.
func TestExactProbabilitiesNoRetryOnCancel(t *testing.T) {
	nw, err := circuits.Comparator(16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = ExactProbabilities(ctx, nw, nil, bdd.Budget{MaxNodes: 20000})
	if err == nil {
		t.Fatal("cancelled context did not error")
	}
	reg := obsv.Enable()
	defer obsv.Disable()
	if got := reg.Counter("power.exact.reordered").Value(); got != 0 {
		t.Fatalf("cancelled context still took the reorder rung: %d", got)
	}
}
