package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// snapBits renders a snapshot with every float as its IEEE-754 bits.
func snapBits(s Snapshot) string {
	return fmt.Sprintf("%s g=%d d=%d ff=%d exact=%x sim=%x spur=%x deg=%t", s.Label, s.Gates, s.Depth,
		s.FlipFlops, math.Float64bits(s.ExactP), math.Float64bits(s.SimP), math.Float64bits(s.Spurious), s.Degraded)
}

// freshFlow is the test oracle for RunFlowCtx: it replays the flow's
// passes on nw and measures from scratch after every one of them with
// MeasureCtx, which in incremental mode means a fresh
// power.IncrementalEstimator per step. Nothing is carried between steps.
func freshFlow(t *testing.T, nw *logic.Network, flow Flow, fctx *Context) *FlowReport {
	t.Helper()
	ctx := context.Background()
	reg := Registry()
	rep := &FlowReport{Flow: flow.Name}
	initial, err := MeasureCtx(ctx, nw, fctx, "initial")
	if err != nil {
		t.Fatal(err)
	}
	rep.Steps = append(rep.Steps, initial)
	for _, name := range flow.Passes {
		p := reg[name]
		if err := p.Run(nw, fctx); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		snap, err := MeasureCtx(ctx, nw, fctx, name)
		if err != nil {
			t.Fatal(err)
		}
		rep.Steps = append(rep.Steps, snap)
	}
	return rep
}

// TestFlowMatchesFreshMeasurement pins the snapshot carry: a step whose
// pass left the network byte-identical reuses the previous snapshot, and
// the trajectory must still match measuring from scratch after every
// pass, to the bit, for every circuit and flow of the flow benchmark in
// both measurement modes.
func TestFlowMatchesFreshMeasurement(t *testing.T) {
	type combo struct {
		circuits []string
		flows    []string
		budget   int
		wide     bool
	}
	combos := []combo{
		{[]string{"alu4", "cla8", "cmp8", "dec5", "mult4", "mult5", "par16", "radd8"},
			[]string{"area", "lowpower", "glitch", "bddmux"}, 0, false},
		{[]string{"cmp16", "radd16", "mult6", "mux16"}, []string{"glitch", "bddmux"}, 20000, true},
	}
	for _, cb := range combos {
		if cb.wide && testing.Short() {
			continue
		}
		for _, circuit := range cb.circuits {
			for _, flowName := range cb.flows {
				for _, incr := range []bool{false, true} {
					label := fmt.Sprintf("%s/%s/incr=%t", circuit, flowName, incr)
					run := func() (*logic.Network, *Context) {
						nw, err := circuits.Named(circuit)
						if err != nil {
							t.Fatal(err)
						}
						fctx := NewContext(nw, 1)
						fctx.ExactBudget = bdd.Budget{MaxNodes: cb.budget}
						fctx.Incremental = incr
						return nw, fctx
					}
					flow := StandardFlows()[flowName]
					nw, fctx := run()
					got, err := RunFlowCtx(context.Background(), nw, flow, fctx)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					onw, ofctx := run()
					want := freshFlow(t, onw, flow, ofctx)
					if len(got.Steps) != len(want.Steps) {
						t.Fatalf("%s: %d steps, oracle %d", label, len(got.Steps), len(want.Steps))
					}
					for i := range got.Steps {
						if g, w := snapBits(got.Steps[i]), snapBits(want.Steps[i]); g != w {
							t.Fatalf("%s step %d:\n got %s\nwant %s", label, i, g, w)
						}
					}
				}
			}
		}
	}
}

// reusedDelta runs the flow and returns how many measurements it reused.
func reusedDelta(t *testing.T, nw *logic.Network, flow Flow, fctx *Context) (*FlowReport, int64, error) {
	t.Helper()
	c := obsv.Enable().Counter("lpflow.measure.reused")
	before := c.Value()
	rep, err := RunFlowCtx(context.Background(), nw, flow, fctx)
	return rep, c.Value() - before, err
}

// TestFlowReusesSnapshotOnlyWhenUnchanged drives the reuse rule with
// injected passes: only a byte-identical network reuses the snapshot,
// and reusing one never skips the equivalence or interface check.
func TestFlowReusesSnapshotOnlyWhenUnchanged(t *testing.T) {
	noop := Pass{Name: "noop", Level: "logic", Run: func(*logic.Network, *Context) error { return nil }}
	rename := Pass{Name: "rename", Level: "logic", Run: func(nw *logic.Network, _ *Context) error {
		nw.Name += "-renamed"
		return nil
	}}
	// invert drives the first output with the complement of the first
	// input.
	invert := Pass{Name: "invert", Level: "logic", Run: func(nw *logic.Network, _ *Context) error {
		g, err := nw.AddGate("", logic.Not, nw.PIs()[0])
		if err != nil {
			return err
		}
		return nw.ReplaceNode(nw.POs()[0], g)
	}}
	// widen makes the first gate a second output of its own.
	widen := Pass{Name: "widen", Level: "logic", Run: func(nw *logic.Network, _ *Context) error {
		for _, id := range nw.Gates() {
			if !nw.IsPO(id) {
				return nw.MarkOutput(id)
			}
		}
		return fmt.Errorf("no internal gate")
	}}
	// dropInput deletes the unused third input of the hand-built network.
	dropInput := Pass{Name: "drop-input", Level: "logic", Run: func(nw *logic.Network, _ *Context) error {
		return nw.DeleteNode(nw.PIs()[2])
	}}
	setup := func(t *testing.T, nw *logic.Network, passes ...Pass) (*Context, Flow) {
		t.Helper()
		fctx := NewContext(nw, 1)
		fctx.ExtraPasses = map[string]Pass{}
		flow := Flow{Name: "injected"}
		for _, p := range passes {
			fctx.ExtraPasses[p.Name] = p
			flow.Passes = append(flow.Passes, p.Name)
		}
		return fctx, flow
	}
	mult := func(t *testing.T) *logic.Network {
		t.Helper()
		nw, err := circuits.ArrayMultiplier(3)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}

	t.Run("noop-reuses", func(t *testing.T) {
		for _, incr := range []bool{false, true} {
			nw := mult(t)
			fctx, flow := setup(t, nw, noop)
			fctx.Incremental = incr
			rep, reused, err := reusedDelta(t, nw, flow, fctx)
			if err != nil {
				t.Fatal(err)
			}
			if reused != 1 {
				t.Fatalf("incr=%t: %d reused measurements, want 1", incr, reused)
			}
			want := rep.Steps[0]
			want.Label = "noop"
			if rep.Steps[1] != want {
				t.Fatalf("incr=%t: no-op step %+v, want %+v", incr, rep.Steps[1], want)
			}
		}
	})
	t.Run("rename-remeasures", func(t *testing.T) {
		nw := mult(t)
		fctx, flow := setup(t, nw, rename)
		rep, reused, err := reusedDelta(t, nw, flow, fctx)
		if err != nil {
			t.Fatal(err)
		}
		if reused != 0 {
			t.Fatalf("rename-only pass reused %d measurements, want 0", reused)
		}
		if got := rep.Steps[1].Label; got != "rename" {
			t.Fatalf("step label %q, want rename", got)
		}
	})
	t.Run("function-change-after-noop", func(t *testing.T) {
		nw := mult(t)
		fctx, flow := setup(t, nw, noop, invert)
		_, _, err := reusedDelta(t, nw, flow, fctx)
		if err == nil || !strings.Contains(err.Error(), `pass "invert" changed the circuit function`) {
			t.Fatalf("err = %v, want the function-change failure", err)
		}
	})
	t.Run("interface-change", func(t *testing.T) {
		nw := mult(t)
		fctx, flow := setup(t, nw, noop, widen)
		_, _, err := reusedDelta(t, nw, flow, fctx)
		if err == nil || !strings.Contains(err.Error(), "mismatched interfaces") {
			t.Fatalf("added output: err = %v, want the interface failure", err)
		}

		nw = logic.New("spare")
		a, b := nw.MustInput("a"), nw.MustInput("b")
		nw.MustInput("c")
		if err := nw.MarkOutput(nw.MustGate("g", logic.And, a, b)); err != nil {
			t.Fatal(err)
		}
		fctx, flow = setup(t, nw, noop, dropInput)
		_, _, err = reusedDelta(t, nw, flow, fctx)
		if err == nil || !strings.Contains(err.Error(), "mismatched interfaces (3/2 inputs") {
			t.Fatalf("dropped input: err = %v, want the interface failure", err)
		}
	})
}
