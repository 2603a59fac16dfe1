// Package core is the survey's unifying frame turned into code: a pass
// manager that chains the toolkit's logic-level power optimizations over a
// common power-report format, mirroring how the surveyed methods are
// "incorporated into state-of-the-art CAD frameworks" (§VI). Each pass is
// one technique from the survey; a Flow runs a sequence with power, area
// and glitch accounting before and after every step, and (for small
// circuits) verifies functional equivalence after each rewrite.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/balance"
	"repro/internal/bdd"
	"repro/internal/bddsynth"
	"repro/internal/dontcare"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/obsv/trace"
	"repro/internal/power"
	"repro/internal/sim"
)

// Context carries the shared evaluation environment through a flow.
type Context struct {
	Params    power.Params
	CapModel  power.CapModel
	InputProb power.Probabilities
	// Vectors drive the simulated (glitch-aware) power measurement; if
	// nil, NewContext generates random vectors.
	Vectors [][]bool
	// Verify enables exhaustive equivalence checking after each pass
	// (only for networks with <= 16 inputs).
	Verify bool
	// ExactBudget caps the BDD work behind each exact power measurement;
	// when a measurement trips it, the snapshot degrades to Monte Carlo
	// (Snapshot.Degraded) instead of failing the flow. The zero value
	// means unlimited.
	ExactBudget bdd.Budget
	// Incremental switches combinational flow measurement to the fast
	// estimation engines with dirty-cone reuse between passes
	// (power.IncrementalEstimator): Snapshot.ExactP becomes the
	// propagated-probability total, SimP the packed zero-delay Monte
	// Carlo total, and Spurious 0 (zero delay sees no glitches).
	// Sequential networks fall back to the classic measurement. The
	// incremental trajectory is bit-identical to running the same fast
	// engines from scratch at every step — FullRecompute demonstrates
	// exactly that.
	Incremental bool
	// FullRecompute keeps the incremental measurement engines but
	// discards the baseline before every measurement — the reference
	// incremental runs are checked and benchmarked against. Only
	// meaningful with Incremental set.
	FullRecompute bool
	// IncrMaxConeFrac forwards power.IncrementalEstimator.MaxConeFrac:
	// dirty cones covering more than this fraction of the live
	// combinational nodes take the full-recompute path instead (0 = no
	// bound).
	IncrMaxConeFrac float64
	// ExtraPasses supplements Registry() for flows run under this
	// context; a name collision resolves to the extra pass. Benchmarks
	// and tests use this to inject custom rewrites into a flow.
	ExtraPasses map[string]Pass
}

// NewContext builds a default context for a network: 1995 parameters,
// minimum-size balancing buffers, uniform inputs, 400 random vectors.
func NewContext(nw *logic.Network, seed int64) *Context {
	return &Context{
		Params:   power.DefaultParams(),
		CapModel: power.BufferWeightedCap(0.25),
		Vectors:  sim.RandomVectors(rand.New(rand.NewSource(seed)), 400, len(nw.PIs()), 0.5),
		Verify:   true,
	}
}

// Snapshot is the common power-report row.
type Snapshot struct {
	Label     string
	Gates     int
	Depth     int
	ExactP    float64 // zero-delay probabilistic power (Eqn. 1)
	SimP      float64 // event-driven power including glitches
	Spurious  float64 // spurious fraction of simulated transitions
	FlipFlops int
	// Degraded marks ExactP as a Monte Carlo estimate: the exact BDD
	// evaluation tripped the context's ExactBudget.
	Degraded bool
}

func (s Snapshot) String() string {
	mark := ""
	if s.Degraded {
		mark = " (MC)"
	}
	return fmt.Sprintf("%-22s gates=%4d depth=%3d ff=%3d exactP=%9.2f%s simP=%9.2f glitch=%5.1f%%",
		s.Label, s.Gates, s.Depth, s.FlipFlops, s.ExactP, mark, s.SimP, 100*s.Spurious)
}

// MeasureCtx evaluates a network under the flow context. The exact
// power estimate runs under fctx.ExactBudget and degrades to Monte Carlo
// when the budget trips; cancellation of ctx aborts the measurement with
// the context's error.
func MeasureCtx(ctx context.Context, nw *logic.Network, fctx *Context, label string) (Snapshot, error) {
	if fctx.Incremental && len(nw.FFs()) == 0 {
		// Standalone incremental-mode measurement: a one-shot estimator
		// (no baseline to reuse, but the same engines and therefore the
		// same snapshot semantics as flow-internal measurements).
		return measureIncremental(ctx, nw, fctx, label, newFlowEstimator(nw, fctx))
	}
	ctx, sp, snap := startMeasure(ctx, nw, "core.measure", label)
	defer sp.End()
	inProb := fctx.InputProb
	if len(nw.FFs()) > 0 {
		seq, err := power.SequentialProbabilities(nw, rand.New(rand.NewSource(1)), 1000, 0.5)
		if err != nil {
			return snap, err
		}
		inProb = seq
	}
	spec := power.Spec{Method: power.MethodExact, Params: fctx.Params, CapModel: fctx.CapModel,
		InputProb: inProb, ExactOptions: power.ExactOptions{Budget: fctx.ExactBudget}}
	exact, err := power.Estimate(ctx, nw, spec)
	if err != nil {
		return snap, err
	}
	snap.ExactP = exact.Total()
	snap.Degraded = exact.Degraded
	spec.Method = power.MethodSimulated
	if spec.Vectors, err = sim.PackVectors(fctx.Vectors); err != nil {
		return snap, err
	}
	rep, err := power.Estimate(ctx, nw, spec)
	if err != nil {
		return snap, err
	}
	snap.SimP = rep.Total()
	snap.Spurious = rep.Totals.SpuriousFraction()
	return snap, nil
}

// startMeasure opens the measurement span name, with its label, and
// returns the snapshot of nw's structure that the measurement completes.
func startMeasure(ctx context.Context, nw *logic.Network, name, label string) (context.Context, *trace.Span, Snapshot) {
	ctx, sp := trace.Start(ctx, name)
	sp.SetAttr("label", label)
	st := nw.Stats()
	return ctx, sp, Snapshot{Label: label, Gates: st.Gates, Depth: st.Levels, FlipFlops: st.FFs}
}

// newFlowEstimator builds the incremental estimator for a combinational
// network under a context's evaluation environment.
func newFlowEstimator(nw *logic.Network, fctx *Context) *power.IncrementalEstimator {
	est := power.NewIncrementalEstimator(nw, fctx.Params, fctx.CapModel, fctx.InputProb, fctx.Vectors)
	est.MaxConeFrac = fctx.IncrMaxConeFrac
	return est
}

// measureIncremental produces a Snapshot from the incremental engines:
// ExactP is the propagated-probability total, SimP the packed zero-delay
// total, Spurious 0. FullRecompute invalidates the baseline first, so the
// same call sites serve both the incremental path and its from-scratch
// reference.
func measureIncremental(ctx context.Context, nw *logic.Network, fctx *Context, label string, est *power.IncrementalEstimator) (Snapshot, error) {
	_, sp, snap := startMeasure(ctx, nw, "core.measure.incr", label)
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return snap, err
	}
	if fctx.FullRecompute {
		est.Invalidate()
	}
	res, err := est.Measure()
	if err != nil {
		return snap, err
	}
	snap.ExactP = res.Propagated.Total()
	snap.SimP = res.Packed.Total()
	return snap, nil
}

// Pass is one optimization step.
type Pass struct {
	Name        string
	Description string
	// Level is the survey abstraction level the pass belongs to.
	Level string
	Run   func(nw *logic.Network, ctx *Context) error
}

// Registry returns the built-in passes by name.
func Registry() map[string]Pass {
	passes := []Pass{
		{
			Name: "sweep", Level: "logic",
			Description: "remove dead logic",
			Run: func(nw *logic.Network, ctx *Context) error {
				nw.SweepDead()
				return nil
			},
		},
		{
			Name: "strash", Level: "logic",
			Description: "structural hashing and constant folding",
			Run: func(nw *logic.Network, ctx *Context) error {
				_, err := logic.Strash(nw)
				return err
			},
		},
		{
			Name: "dontcare-area", Level: "logic",
			Description: "don't-care simplification targeting literal count [37]",
			Run: func(nw *logic.Network, ctx *Context) error {
				_, err := dontcare.OptimizeNetwork(nw, dontcare.Options{
					Objective: dontcare.Area, UseODC: true,
					InputProb: ctx.InputProb, Params: ctx.Params,
				})
				return err
			},
		},
		{
			Name: "dontcare-power", Level: "logic",
			Description: "don't-care assignment minimizing switching activity [38,19]",
			Run: func(nw *logic.Network, ctx *Context) error {
				_, err := dontcare.OptimizeNetwork(nw, dontcare.Options{
					Objective: dontcare.NetworkPower, UseODC: true,
					InputProb: ctx.InputProb, Params: ctx.Params,
				})
				return err
			},
		},
		{
			Name: "bddsynth", Level: "logic",
			Description: "BDD-derived MUX synthesis under sifting reorder (Popel)",
			Run: func(nw *logic.Network, ctx *Context) error {
				_, err := bddsynth.Synthesize(context.Background(), nw, bddsynth.Options{
					Budget:    ctx.ExactBudget,
					InputProb: ctx.InputProb,
					Params:    ctx.Params,
					CapModel:  ctx.CapModel,
				})
				return err
			},
		},
		{
			Name: "balance", Level: "logic",
			Description: "full path balancing: eliminate spurious transitions [16,25]",
			Run: func(nw *logic.Network, ctx *Context) error {
				_, err := balance.Balance(nw, balance.Options{MaxSkew: 0})
				return err
			},
		},
	}
	out := make(map[string]Pass, len(passes))
	for _, p := range passes {
		out[p.Name] = p
	}
	return out
}

// PassNames lists registered passes sorted by name.
func PassNames() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Flow is a named pass sequence.
type Flow struct {
	Name   string
	Passes []string
}

// StandardFlows returns the canonical flows: the area-driven baseline and
// the survey's low-power recipe.
func StandardFlows() map[string]Flow {
	return map[string]Flow{
		"area":     {Name: "area", Passes: []string{"strash", "dontcare-area", "sweep"}},
		"lowpower": {Name: "lowpower", Passes: []string{"strash", "dontcare-power", "sweep", "balance"}},
		"glitch":   {Name: "glitch", Passes: []string{"strash", "balance"}},
		"bddmux":   {Name: "bddmux", Passes: []string{"strash", "bddsynth", "sweep"}},
	}
}

// FlowReport records the trajectory of one flow run.
type FlowReport struct {
	Flow  string
	Steps []Snapshot
}

// Initial and Final expose the first and last snapshots.
func (fr *FlowReport) Initial() Snapshot { return fr.Steps[0] }

// Final returns the last snapshot.
func (fr *FlowReport) Final() Snapshot { return fr.Steps[len(fr.Steps)-1] }

func (fr *FlowReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flow %s:\n", fr.Flow)
	for _, s := range fr.Steps {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	if len(fr.Steps) > 1 && fr.Initial().SimP > 0 {
		fmt.Fprintf(&b, "  simulated power %.2f -> %.2f (%.1f%%)\n",
			fr.Initial().SimP, fr.Final().SimP,
			100*(fr.Final().SimP-fr.Initial().SimP)/fr.Initial().SimP)
	}
	return b.String()
}

// RunFlow applies the flow's passes to the network in place, measuring
// after each pass and verifying equivalence when the context asks for it.
func RunFlow(nw *logic.Network, flow Flow, fctx *Context) (*FlowReport, error) {
	return RunFlowCtx(context.Background(), nw, flow, fctx)
}

// RunFlowCtx is RunFlow with a cancellation boundary: ctx is polled
// before each pass and each measurement, so a deadline or cancel stops
// the flow at the next pass boundary. On cancellation the partial
// FlowReport accumulated so far is returned ALONGSIDE the error — the
// steps already measured stay valid even though the flow did not finish.
// All other errors return a nil report, as before.
//
// Each piece of work is done once. Verification tabulates the input
// network's truth table once at flow start (logic.NewReference) and
// compares every pass's result against it. A measurement is a pure
// function of the network and fctx, so a pass that leaves the network
// byte-identical to the one last measured (same logic.StructuralHash)
// carries the previous snapshot forward under its own label instead of
// measuring again (counted by lpflow.measure.reused); in incremental
// mode the next measurement's cone then covers this pass's changes too.
func RunFlowCtx(ctx context.Context, nw *logic.Network, flow Flow, fctx *Context) (*FlowReport, error) {
	reg := Registry()
	for name, p := range fctx.ExtraPasses {
		reg[name] = p
	}
	// One estimator serves every measurement of the flow: the initial
	// call takes the full baseline, and each pass's measurement then
	// re-derives only the cone of the nodes the pass changed.
	var est *power.IncrementalEstimator
	if fctx.Incremental && len(nw.FFs()) == 0 {
		est = newFlowEstimator(nw, fctx)
	}
	measure := func(ctx context.Context, label string) (Snapshot, error) {
		if est != nil {
			return measureIncremental(ctx, nw, fctx, label, est)
		}
		return MeasureCtx(ctx, nw, fctx, label)
	}
	rep := &FlowReport{Flow: flow.Name}
	snap, err := measure(ctx, "initial")
	if err != nil {
		return nil, err
	}
	rep.Steps = append(rep.Steps, snap)
	measured := logic.StructuralHash(nw)
	var golden *logic.Reference
	if fctx.Verify && len(nw.PIs()) <= 16 && len(nw.FFs()) == 0 {
		if golden, err = logic.NewReference(nw); err != nil {
			return nil, err
		}
	}
	obs := obsv.Default()
	reused := obs.Counter("lpflow.measure.reused")
	for _, name := range flow.Passes {
		if cerr := ctx.Err(); cerr != nil {
			return rep, fmt.Errorf("core: flow %q stopped before pass %q: %w", flow.Name, name, cerr)
		}
		p, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("core: unknown pass %q in flow %q", name, flow.Name)
		}
		// The pass span covers the pass, its checks and the measurement
		// after it, so the measurement's engine spans nest under it. It
		// ends explicitly below; the deferred End (a no-op once it has
		// ended) closes it on an error return.
		pctx, tsp := trace.Start(ctx, "pass."+name)
		defer tsp.End()
		tsp.SetAttr("level", p.Level)
		passStart := time.Now()
		err := p.Run(nw, fctx)
		obs.Histogram("lpflow.pass." + name + ".us").Observe(time.Since(passStart).Microseconds())
		if err != nil {
			return nil, fmt.Errorf("core: pass %q: %w", name, err)
		}
		if err := nw.Check(); err != nil {
			return nil, fmt.Errorf("core: pass %q corrupted network: %w", name, err)
		}
		if golden != nil {
			eq, err := golden.Equivalent(nw)
			if err != nil {
				return nil, err
			}
			if !eq {
				return nil, fmt.Errorf("core: pass %q changed the circuit function", name)
			}
		}
		prev := rep.Steps[len(rep.Steps)-1]
		snap := prev
		snap.Label = name
		if h := logic.StructuralHash(nw); h != measured {
			measured = h
			snap, err = measure(pctx, name)
		} else if err = ctx.Err(); err == nil {
			// Byte-identical to the network last measured, and a
			// measurement is a pure function of the network and fctx:
			// measuring again would return prev.
			reused.Inc()
		}
		if err != nil {
			if ctx.Err() != nil {
				return rep, fmt.Errorf("core: flow %q stopped measuring after pass %q: %w", flow.Name, name, err)
			}
			return nil, err
		}
		rep.Steps = append(rep.Steps, snap)
		if tsp != nil {
			// Before/after deltas: negative dpower means the pass reduced
			// simulated (glitch-inclusive) power.
			tsp.SetAttr("dpower", snap.SimP-prev.SimP)
			tsp.SetAttr("dexactp", snap.ExactP-prev.ExactP)
			tsp.SetAttr("dgates", snap.Gates-prev.Gates)
			tsp.SetAttr("ddepth", snap.Depth-prev.Depth)
		}
		tsp.End()
	}
	return rep, nil
}
