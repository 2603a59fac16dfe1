package power

import (
	"context"
	"fmt"

	"repro/internal/logic"
	"repro/internal/sim"
)

// Method names the activity source behind an Eqn. 1 report. The values
// are the estimator names the serving API accepts.
type Method string

const (
	// MethodExact takes zero-delay activity from exact BDD signal
	// probabilities; over its budget it retries with sifting, then
	// degrades to packed Monte Carlo (see EstimateExactCtx).
	MethodExact Method = "exact"
	// MethodPropagated propagates signal probabilities forward under
	// the spatial-independence assumption (see EstimatePropagated).
	MethodPropagated Method = "propagated"
	// MethodDensity propagates Najm transition densities over exact
	// Boolean differences (see TransitionDensities). It has no Monte
	// Carlo fallback: a tripped budget is returned as the error.
	MethodDensity Method = "density"
	// MethodPacked measures zero-delay activity with the 64-lane packed
	// simulator; combinational networks only (see
	// sim.PackedSimulator.RunStimulus).
	MethodPacked Method = "packed"
	// MethodSimulated measures unit-delay activity, glitches included,
	// with the event-driven simulator (see sim.MeasureStimulusCtx).
	MethodSimulated Method = "simulated"
)

// Spec selects an estimation method and its inputs.
type Spec struct {
	Method   Method
	Params   Params
	CapModel CapModel // nil = UnitLoadCap
	// InputProb gives source nodes' 1-probabilities (missing = 0.5) for
	// the exact, propagated and density methods. Density sources switch
	// with the temporally independent density 2·p·(1−p).
	InputProb Probabilities
	// Vectors is the stimulus of the packed and simulated methods; its
	// width must be the network's input count.
	Vectors sim.Stimulus
	// ExactOptions bounds the BDD work of the exact and density methods
	// and configures the exact method's Monte Carlo fallback.
	ExactOptions
}

// Estimate produces an Eqn. 1 report by the method spec names. Beyond the
// method body's report it records the Method, the number of vectors
// behind a sampled number (Samples; 0 when exact) and the simulation
// Totals of the packed and simulated methods. ctx bounds the BDD methods
// and the simulated run, and a trace it carries gains their spans.
func Estimate(ctx context.Context, nw *logic.Network, spec Spec) (Report, error) {
	var (
		rep     Report
		tot     sim.Totals
		samples int
		err     error
	)
	switch spec.Method {
	case MethodExact:
		rep, err = EstimateExactCtx(ctx, nw, spec.Params, spec.CapModel, spec.InputProb, spec.ExactOptions)
		if rep.Degraded {
			samples = spec.vectors()
		}
	case MethodPropagated:
		rep, err = EstimatePropagated(nw, spec.Params, spec.CapModel, spec.InputProb)
	case MethodDensity:
		var dens map[logic.NodeID]float64
		dens, err = TransitionDensities(ctx, nw, nil, spec.InputProb, spec.Budget)
		if err == nil {
			rep = Evaluate(nw, spec.Params, spec.CapModel, func(id logic.NodeID) float64 { return dens[id] })
		}
	case MethodPacked:
		rep, tot, err = estimatePacked(nw, spec.Params, spec.CapModel, spec.Vectors)
		samples = spec.Vectors.Len()
	case MethodSimulated:
		rep, tot, err = simulate(ctx, nw, spec.Params, spec.CapModel, sim.UnitDelay, spec.Vectors, 0)
		samples = spec.Vectors.Len()
	default:
		return Report{}, fmt.Errorf("power: unknown estimation method %q", spec.Method)
	}
	if err != nil {
		return Report{}, err
	}
	rep.Method, rep.Samples, rep.Totals = spec.Method, samples, tot
	return rep, nil
}

// EstimateSimulatedParallel produces an Eqn. 1 report from measured
// event-driven activity over the supplied vectors, capturing glitch power
// that the zero-delay estimators miss, and returns the simulation totals.
// The run is sharded across workers (0 = GOMAXPROCS, 1 = sequential); any
// worker count produces the same report bit for bit, because the vector
// stream is chunked deterministically and each shard warm-starts from the
// exact settled state at its boundary (see sim.MeasureStimulusCtx). It
// packs the vectors and runs the simulated method's body.
func EstimateSimulatedParallel(nw *logic.Network, p Params, cm CapModel, dm sim.DelayModel, vectors [][]bool, workers int) (Report, sim.Totals, error) {
	st, err := sim.PackVectors(vectors)
	if err != nil {
		return Report{}, sim.Totals{}, err
	}
	return simulate(context.Background(), nw, p, cm, dm, st, workers)
}

// simulate is the event-driven method body: one sharded
// sim.MeasureStimulusCtx, which records a "sim.measure" span on a traced
// ctx. The report carries the run's per-node counts.
func simulate(ctx context.Context, nw *logic.Network, p Params, cm CapModel, dm sim.DelayModel, st sim.Stimulus, workers int) (Report, sim.Totals, error) {
	m, err := sim.MeasureStimulusCtx(ctx, nw, dm, st, workers)
	if err != nil {
		return Report{}, sim.Totals{}, err
	}
	rep := measured(nw, p, cm, st, m.Activity)
	rep.Counts = &m.Counts
	return rep, m.Totals, nil
}

// EstimateZeroDelayPacked produces an Eqn. 1 report from the bit-parallel
// packed engine (sim.PackedSimulator): measured zero-delay activity at 64
// vectors per machine word. It is the fast path for Monte Carlo power
// estimation on combinational networks when glitch power is not needed —
// its per-node activity equals the useful (zero-delay) component of the
// event-driven estimate over the same vectors. It packs the vectors and
// runs the packed method's body.
func EstimateZeroDelayPacked(nw *logic.Network, p Params, cm CapModel, vectors [][]bool) (Report, sim.Totals, error) {
	st, err := sim.PackVectors(vectors)
	if err != nil {
		return Report{}, sim.Totals{}, err
	}
	return estimatePacked(nw, p, cm, st)
}

// estimatePacked is the packed method body.
func estimatePacked(nw *logic.Network, p Params, cm CapModel, st sim.Stimulus) (Report, sim.Totals, error) {
	ps, err := sim.NewPacked(nw)
	if err != nil {
		return Report{}, sim.Totals{}, err
	}
	tot, err := ps.RunStimulus(st)
	if err != nil {
		return Report{}, sim.Totals{}, err
	}
	return measured(nw, p, cm, st, ps.Activity), tot, nil
}

// measured applies Eqn. 1 to an engine's measured activity. No engine
// counts primary inputs, so their activity is taken from the vector
// stream itself.
func measured(nw *logic.Network, p Params, cm CapModel, st sim.Stimulus, activity func(logic.NodeID) float64) Report {
	piAct := piActivity(nw, st)
	return Evaluate(nw, p, cm, func(id logic.NodeID) float64 {
		if nw.Node(id).Type == logic.Input {
			return piAct[id]
		}
		return activity(id)
	})
}

// piActivity measures each primary input's activity from the stream
// itself (the simulator does not charge source nets), indexed by NodeID;
// other slots are 0. The toggle counts are popcounts over the packed
// input words (sim.Stimulus.Toggles), the first vector counted against
// the all-zero reset.
func piActivity(nw *logic.Network, st sim.Stimulus) []float64 {
	act := make([]float64, nw.NumNodes())
	if st.Len() == 0 {
		return act
	}
	toggles := st.Toggles()
	for i, pi := range nw.PIs() {
		act[pi] = float64(toggles[i]) / float64(st.Len())
	}
	return act
}
