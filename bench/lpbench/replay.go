package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
)

// replayer re-executes a served request by calling each layer's public
// functions directly, in the order the server calls them: it mirrors the
// estimate handler, EstimateExactCtx's exact → sift → Monte Carlo ladder
// and core.RunFlowCtx's pass loop, and re-implements the two tiny private
// helpers it needs (biasedVectors and piActivity). With a tracer attached
// every call is a span. The bodies it builds must equal the served ones
// byte for byte, which is what keeps this outside-in mirror honest: a
// change to the server's pipeline that the replay does not follow fails
// the check instead of skewing the layer times.
type replayer struct {
	t *tracer
	// nets mirrors the server's parsed-network cache for named circuits;
	// uploads are distinct, so the server parses every one of them.
	nets map[string]*netEntry
	c    replayCounts
}

type netEntry struct {
	nw   *logic.Network
	hash string
}

// replayCounts are the per-layer counts the replay observes.
type replayCounts struct {
	exact, retries, degraded int
	nodesMax                 int
	simOps                   int
	simEvents                int64
	incrCone, incrClean      int
	ratios                   []float64 // flows' sim_power_ratio
}

func newReplayer(t *tracer) *replayer {
	return &replayer{t: t, nets: map[string]*netEntry{}}
}

// resolve mirrors the server's resolveNetwork: generator or BLIF parse plus
// Check, then the structural hash, once per named circuit.
func (rp *replayer) resolve(circuit, blif string) (*netEntry, error) {
	if ent, ok := rp.nets[circuit]; ok && circuit != "" {
		return ent, nil
	}
	ent := &netEntry{}
	err := rp.t.run("logic.resolve", func() (err error) {
		if circuit != "" {
			ent.nw, err = circuits.Named(circuit)
		} else {
			ent.nw, err = logic.ReadBLIF(strings.NewReader(blif))
		}
		if err != nil {
			return err
		}
		return ent.nw.Check()
	})
	if err != nil {
		return nil, err
	}
	rp.t.run("logic.hash", func() error { ent.hash = logic.StructuralHash(ent.nw); return nil })
	if circuit != "" {
		rp.nets[circuit] = ent
	}
	return ent, nil
}

// vectors mirrors the server's vector draw for simulated and packed
// estimates: p1 = 0.5 on every input.
func (rp *replayer) vectors(seed int64, n, width int) [][]bool {
	var v [][]bool
	rp.t.run("sim.vectors", func() error {
		v = sim.RandomVectors(rand.New(rand.NewSource(seed)), n, width, 0.5)
		return nil
	})
	return v
}

// estimate re-executes one /v1/estimate request and returns its body.
func (rp *replayer) estimate(ctx context.Context, q server.EstimateRequest) ([]byte, error) {
	ent, err := rp.resolve(q.Circuit, q.BLIF)
	if err != nil {
		return nil, err
	}
	nw, p := ent.nw, power.DefaultParams()
	inProb := power.Probabilities{}
	for _, pi := range nw.PIs() {
		inProb[pi] = 0.5
	}
	if len(nw.FFs()) > 0 {
		if err := rp.t.run("power.seqprob", func() (err error) {
			inProb, err = power.SequentialProbabilities(nw, rand.New(rand.NewSource(q.Seed)), 2000, 0.5)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var rep power.Report
	var spurious *float64
	switch q.Estimator {
	case "exact":
		rep, err = rp.exact(ctx, nw, p, nil, inProb, bdd.Budget{MaxNodes: q.BDDMaxNodes, MaxSteps: q.BDDMaxSteps}, q.Vectors, q.Seed)
	case "propagated":
		var ps power.Probabilities
		err = rp.t.run("power.propagate", func() (err error) { ps, err = power.PropagatedProbabilities(nw, inProb); return err })
		rp.t.run("power.evaluate", func() error { rep = power.Evaluate(nw, p, nil, ps.Activity); return nil })
	case "simulated":
		vecs := rp.vectors(q.Seed, q.Vectors, len(nw.PIs()))
		var m *sim.Measure
		if err = rp.t.run("sim.event", func() (err error) { m, err = sim.MeasureRunCtx(ctx, nw, sim.UnitDelay, vecs, 0); return err }); err != nil {
			break
		}
		rp.c.simOps++
		rp.c.simEvents += m.Totals.Transitions
		rep = rp.evaluate(nw, p, nil, vecs, m.Activity)
		f := m.Totals.SpuriousFraction()
		spurious = &f
	case "packed":
		vecs := rp.vectors(q.Seed, q.Vectors, len(nw.PIs()))
		var ps *sim.PackedSimulator
		err = rp.t.run("sim.packed", func() (err error) {
			if ps, err = sim.NewPacked(nw); err != nil {
				return err
			}
			_, err = ps.Run(vecs)
			return err
		})
		if err == nil {
			rep = rp.evaluate(nw, p, nil, vecs, ps.Activity)
		}
	default:
		err = fmt.Errorf("replay: unknown estimator %q", q.Estimator)
	}
	if err != nil {
		return nil, err
	}
	var body []byte
	err = rp.t.run("server.encode", func() (err error) {
		body, err = estimateBody(ent, q.Estimator, rep, spurious)
		return err
	})
	return body, err
}

// evaluate applies Eqn. 1 to measured activity, charging primary inputs
// with the activity of the vector stream itself (power's piActivity).
func (rp *replayer) evaluate(nw *logic.Network, p power.Params, cm power.CapModel, vecs [][]bool, act func(logic.NodeID) float64) power.Report {
	var rep power.Report
	rp.t.run("power.evaluate", func() error {
		piAct := piActivity(nw, vecs)
		rep = power.Evaluate(nw, p, cm, func(id logic.NodeID) float64 {
			if a, ok := piAct[id]; ok {
				return a
			}
			return act(id)
		})
		return nil
	})
	return rep
}

// exact mirrors power.EstimateExactCtx: a budgeted BDD build, one sifting
// retry when the budget trips, then the seeded packed Monte Carlo fallback.
func (rp *replayer) exact(ctx context.Context, nw *logic.Network, p power.Params, cm power.CapModel, inProb power.Probabilities, b bdd.Budget, mcVectors int, mcSeed int64) (power.Report, error) {
	rp.c.exact++
	var nb *bdd.NetworkBDDs
	err := rp.t.run("bdd.build", func() (err error) { nb, err = bdd.FromNetworkCtx(ctx, nw, b); return err })
	if err != nil && errors.Is(err, bdd.ErrBudgetExceeded) && ctx.Err() == nil {
		rp.c.retries++
		err = rp.t.run("bdd.sift", func() (err error) {
			nb, err = bdd.FromNetworkOpts(ctx, nw, bdd.BuildOptions{Budget: b, Reorder: bdd.ReorderPolicy{Enable: true}})
			return err
		})
	}
	if err != nil {
		if !errors.Is(err, bdd.ErrBudgetExceeded) {
			return power.Report{}, err
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return power.Report{}, fmt.Errorf("power: exact estimation aborted: %w", ctxErr)
		}
		if len(nw.FFs()) > 0 {
			return power.Report{}, errors.New("replay: the sequential Monte Carlo fallback is not mirrored")
		}
		rp.c.degraded++
		var rep power.Report
		if mcErr := rp.t.run("power.mc", func() (err error) {
			rep, _, err = power.EstimateZeroDelayPacked(nw, p, cm, biasedVectors(nw, inProb, mcVectors, mcSeed))
			return err
		}); mcErr != nil {
			return power.Report{}, mcErr
		}
		rep.Degraded, rep.DegradeReason = true, err.Error()
		return rep, nil
	}
	rp.c.nodesMax = max(rp.c.nodesMax, nb.M.Size())
	ps := make(power.Probabilities, len(nb.Fn))
	rp.t.run("bdd.prob", func() error {
		pv := make([]float64, nb.M.NumVars())
		for i, src := range nb.Vars {
			pr, ok := inProb[src]
			if !ok {
				pr = 0.5
			}
			pv[i] = pr
		}
		for id, f := range nb.Fn {
			ps[id] = nb.M.Probability(f, pv)
		}
		return nil
	})
	var rep power.Report
	rp.t.run("power.evaluate", func() error { rep = power.Evaluate(nw, p, cm, ps.Activity); return nil })
	return rep, nil
}

// biasedVectors mirrors power's fallback vector draw: input i is 1 with its
// declared probability, from the stream power.ShardSeed(seed, 0) seeds.
func biasedVectors(nw *logic.Network, inProb power.Probabilities, n int, seed int64) [][]bool {
	if n <= 0 {
		n = 2048
	}
	if seed == 0 {
		seed = 1
	}
	pis := nw.PIs()
	probs := make([]float64, len(pis))
	for i, pi := range pis {
		probs[i] = 0.5
		if p, ok := inProb[pi]; ok {
			probs[i] = p
		}
	}
	r := rand.New(rand.NewSource(power.ShardSeed(seed, 0)))
	vecs := make([][]bool, n)
	for c := range vecs {
		v := make([]bool, len(pis))
		for i := range v {
			v[i] = r.Float64() < probs[i]
		}
		vecs[c] = v
	}
	return vecs
}

// piActivity mirrors power's primary-input activity: toggles along the
// vector stream, the first vector's ones counting from the all-zero reset.
func piActivity(nw *logic.Network, vecs [][]bool) map[logic.NodeID]float64 {
	act := make(map[logic.NodeID]float64)
	if len(vecs) == 0 {
		return act
	}
	for i, pi := range nw.PIs() {
		tr, prev := 0, false
		for _, v := range vecs {
			if v[i] != prev {
				tr++
				prev = v[i]
			}
		}
		act[pi] = float64(tr) / float64(len(vecs))
	}
	return act
}

// estimateBody builds the /v1/estimate body the server sends.
func estimateBody(ent *netEntry, estimator string, rep power.Report, spurious *float64) ([]byte, error) {
	st := ent.nw.Stats()
	resp := server.EstimateResponse{
		Circuit: ent.nw.Name, Hash: ent.hash, Estimator: estimator,
		Gates: st.Gates, Depth: st.Levels, FlipFlops: st.FFs,
		Power: server.PowerJSON{
			Total: rep.Total(), Switching: rep.Switching, ShortCircuit: rep.ShortCkt, Leakage: rep.Leakage,
			SwitchingShare: rep.SwitchingShare(), Degraded: rep.Degraded, DegradeReason: rep.DegradeReason,
		},
		Top:              []server.NodePowerJSON{},
		SpuriousFraction: spurious,
	}
	for _, np := range rep.TopConsumers(5) {
		resp.Top = append(resp.Top, server.NodePowerJSON{Name: np.Name, Cap: np.Cap, Activity: np.Activity, Power: np.Total()})
	}
	return json.Marshal(resp)
}

// passLayer names the span around each registered pass.
var passLayer = map[string]string{
	"strash": "logic.strash", "sweep": "logic.sweep",
	"dontcare-area": "dontcare.area", "dontcare-power": "dontcare.power",
	"balance": "balance.pass", "balance-partial": "balance.pass",
	"bddsynth": "bddsynth.pass",
}

// flow re-executes one /v1/flow request, mirroring the server's clone
// and core.RunFlowCtx's measure → pass → check → verify → measure loop.
func (rp *replayer) flow(ctx context.Context, q server.FlowRequest) ([]byte, error) {
	ent, err := rp.resolve(q.Circuit, q.BLIF)
	if err != nil {
		return nil, err
	}
	flow, ok := core.StandardFlows()[q.Flow]
	if !ok {
		return nil, fmt.Errorf("replay: unknown flow %q", q.Flow)
	}
	var nw *logic.Network
	rp.t.run("logic.clone", func() error { nw = ent.nw.Clone(); return nil })
	var fctx *core.Context
	rp.t.run("sim.vectors", func() error { fctx = core.NewContext(nw, q.Seed); return nil })
	fctx.Verify = q.Verify == nil || *q.Verify
	fctx.ExactBudget = bdd.Budget{MaxNodes: q.BDDMaxNodes, MaxSteps: q.BDDMaxSteps}
	fctx.Incremental = q.Incremental

	var est *power.IncrementalEstimator
	if fctx.Incremental && len(nw.FFs()) == 0 {
		est = power.NewIncrementalEstimator(nw, fctx.Params, fctx.CapModel, fctx.InputProb, fctx.Vectors)
		est.MaxConeFrac = fctx.IncrMaxConeFrac
	}
	measure := func(label string) (core.Snapshot, error) {
		if est != nil {
			return rp.measureIncremental(nw, label, est)
		}
		return rp.measure(ctx, nw, fctx, label)
	}
	snap, err := measure("initial")
	if err != nil {
		return nil, err
	}
	steps := []core.Snapshot{snap}
	var golden *logic.Network
	verify := fctx.Verify && len(nw.PIs()) <= 16 && len(nw.FFs()) == 0
	if verify {
		rp.t.run("logic.clone", func() error { golden = nw.Clone(); return nil })
	}
	reg := core.Registry()
	for _, name := range flow.Passes {
		p, ok := reg[name]
		if !ok {
			return nil, fmt.Errorf("replay: unknown pass %q", name)
		}
		if err := rp.t.run(passLayer[name], func() error { return p.Run(nw, fctx) }); err != nil {
			return nil, fmt.Errorf("core: pass %q: %w", name, err)
		}
		if err := rp.t.run("logic.check", nw.Check); err != nil {
			return nil, err
		}
		if verify {
			if err := rp.t.run("logic.verify", func() error {
				eq, err := logic.Equivalent(golden, nw)
				if err == nil && !eq {
					err = fmt.Errorf("core: pass %q changed the circuit function", name)
				}
				return err
			}); err != nil {
				return nil, err
			}
		}
		snap, err := measure(name)
		if err != nil {
			return nil, err
		}
		steps = append(steps, snap)
	}
	var final string
	rp.t.run("logic.hash", func() error { final = logic.StructuralHash(nw); return nil })
	var body []byte
	err = rp.t.run("server.encode", func() error {
		resp := server.FlowResponse{Circuit: nw.Name, Flow: flow.Name, Hash: ent.hash, FinalHash: final,
			Passes: flow.Passes, Steps: []server.SnapshotJSON{}}
		for _, s := range steps {
			resp.Steps = append(resp.Steps, snapshotJSON(s))
		}
		if initial := steps[0].SimP; initial > 0 {
			resp.SimPowerRatio = steps[len(steps)-1].SimP / initial
		}
		rp.c.ratios = append(rp.c.ratios, resp.SimPowerRatio)
		body, err = json.Marshal(resp)
		return err
	})
	return body, err
}

func snapshotJSON(s core.Snapshot) server.SnapshotJSON {
	return server.SnapshotJSON{Label: s.Label, Gates: s.Gates, Depth: s.Depth, FlipFlops: s.FlipFlops,
		ExactP: s.ExactP, SimP: s.SimP, Spurious: s.Spurious, Degraded: s.Degraded}
}

// measure mirrors core.MeasureCtx for combinational networks: exact
// zero-delay power under the flow's budget, then event-driven simulation.
func (rp *replayer) measure(ctx context.Context, nw *logic.Network, fctx *core.Context, label string) (core.Snapshot, error) {
	st := nw.Stats()
	snap := core.Snapshot{Label: label, Gates: st.Gates, Depth: st.Levels, FlipFlops: st.FFs}
	if len(nw.FFs()) > 0 {
		return snap, errors.New("replay: sequential flow measurement is not mirrored")
	}
	exact, err := rp.exact(ctx, nw, fctx.Params, fctx.CapModel, fctx.InputProb, fctx.ExactBudget, 0, 0)
	if err != nil {
		return snap, err
	}
	snap.ExactP, snap.Degraded = exact.Total(), exact.Degraded
	var m *sim.Measure
	if err := rp.t.run("sim.event", func() (err error) {
		m, err = sim.MeasureRunCtx(ctx, nw, sim.UnitDelay, fctx.Vectors, 0)
		return err
	}); err != nil {
		return snap, err
	}
	rp.c.simOps++
	rp.c.simEvents += m.Totals.Transitions
	snap.SimP = rp.evaluate(nw, fctx.Params, fctx.CapModel, fctx.Vectors, m.Activity).Total()
	snap.Spurious = m.Totals.SpuriousFraction()
	return snap, nil
}

// measureIncremental mirrors core's incremental measurement: propagated
// and packed totals from the flow's one IncrementalEstimator.
func (rp *replayer) measureIncremental(nw *logic.Network, label string, est *power.IncrementalEstimator) (core.Snapshot, error) {
	st := nw.Stats()
	snap := core.Snapshot{Label: label, Gates: st.Gates, Depth: st.Levels, FlipFlops: st.FFs}
	var res power.IncrementalResult
	if err := rp.t.run("power.incr", func() (err error) { res, err = est.Measure(); return err }); err != nil {
		return snap, err
	}
	rp.c.incrCone += res.ConeNodes
	rp.c.incrClean += res.CleanNodes
	snap.ExactP, snap.SimP = res.Propagated.Total(), res.Packed.Total()
	return snap, nil
}
