package sim

import (
	"context"
	"fmt"

	"repro/internal/logic"
	"repro/internal/obsv/trace"
)

// Measure is the result of an event-driven simulation run: per-node
// cumulative transition counts plus the aggregate Totals. It embeds the
// same Counts as Simulator, so power estimators read either through one
// accessor surface.
type Measure struct {
	Totals Totals
	Counts
}

// DelayModel assigns an integer propagation delay to each node. The
// simulator is unit-delay only, so Validate accepts only models that
// give every gate a delay of 1; sources (inputs, constants, flip-flop
// outputs) are ignored.
type DelayModel func(n *logic.Node) int

// UnitDelay gives every gate a delay of 1 — the classic unit-delay model
// used for glitch analysis.
func UnitDelay(*logic.Node) int { return 1 }

// Validate reports an error unless dm gives every gate of nw a delay of
// 1, the only delay the simulator runs; a nil model is unit delay. It is
// the one check of the two [][]bool wrappers that take a DelayModel,
// MeasureRunCtx and power.EstimateSimulatedParallel.
func (dm DelayModel) Validate(nw *logic.Network) error {
	if dm == nil {
		return nil
	}
	for _, id := range nw.Gates() {
		nd := nw.Node(id)
		if d := dm(nd); d != 1 {
			return fmt.Errorf("sim: delay model gave %d for gate %q (the simulator is unit-delay: must be 1)", d, nd.Name)
		}
	}
	return nil
}

// MeasureRunCtx checks that the delay model is unit delay (Validate),
// packs the vector stream and runs it as MeasureStimulusCtx does. The
// workers argument changes nothing: every run is one Simulator pass, and
// parallelism belongs to the callers that schedule requests and tables.
// The workers and delay-model parameters stay only because bench/lpbench
// calls this [][]bool wrapper with them.
func MeasureRunCtx(ctx context.Context, nw *logic.Network, dm DelayModel, vectors [][]bool, workers int) (*Measure, error) {
	st, err := PackVectors(vectors)
	if err != nil {
		return nil, err
	}
	if err := dm.Validate(nw); err != nil {
		return nil, err
	}
	return MeasureStimulusCtx(ctx, nw, st)
}

// MeasureStimulusCtx simulates the packed stream at unit delay in one
// Simulator run and returns its per-node counts. Each cycle loads its
// vector from the stream into one reused buffer.
//
// It refuses to start after cancellation, stops with ctx.Err() within
// ctxCheckCycles cycles of it, and, when the context carries a trace (see
// internal/obsv/trace), it records the run as a "sim.measure" span
// annotated with cycle and transition counts. The context influences only
// whether the run finishes and what gets observed, never what is
// computed.
func MeasureStimulusCtx(ctx context.Context, nw *logic.Network, st Stimulus) (*Measure, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !st.fits(len(nw.PIs())) {
		return nil, fmt.Errorf("sim: measure got %d-bit vectors, network has %d inputs", st.Width(), len(nw.PIs()))
	}
	_, sp := trace.Start(ctx, "sim.measure")
	m, err := measureRun(ctx, nw, st)
	if sp != nil {
		sp.SetAttr("cycles", st.Len())
		if err == nil {
			sp.SetAttr("transitions", m.Totals.Transitions)
			sp.SetAttr("spurious", m.Totals.Spurious)
		}
		sp.End()
	}
	return m, err
}

func measureRun(ctx context.Context, nw *logic.Network, st Stimulus) (*Measure, error) {
	s, err := New(nw)
	if err != nil {
		return nil, err
	}
	tot, err := s.run(ctx, st)
	if err != nil {
		return nil, err
	}
	return &Measure{Totals: tot, Counts: s.Counts}, nil
}
