// Package repro's root benchmark harness: one testing.B benchmark per
// experiment table (E1..E18 — the reproduction's "tables and figures"),
// plus micro-benchmarks for the hot substrates (BDD construction,
// event-driven simulation, espresso minimization, technology mapping).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report the key headline number of each table
// as a custom metric so `go test -bench` output doubles as a compact
// reproduction summary.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/dontcare"
	"repro/internal/encode"
	"repro/internal/experiments"
	"repro/internal/gating"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/power"
	"repro/internal/precomp"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/sop"
	"repro/internal/stg"
	"repro/internal/tmap"
)

// benchExperiment runs one experiment table per iteration and reports a
// headline metric extracted from it.
func benchExperiment(b *testing.B, run func() (*experiments.Table, error),
	metricName string, metric func(*experiments.Table) float64) {
	b.Helper()
	var tbl *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	if tbl != nil && metric != nil {
		b.ReportMetric(metric(tbl), metricName)
	}
}

func cell(tbl *experiments.Table, row, col int) float64 {
	s := strings.TrimSuffix(tbl.Rows[row][col], "%")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

func BenchmarkE1PowerBreakdown(b *testing.B) {
	benchExperiment(b, experiments.E1PowerBreakdown, "switch_share_pct",
		func(t *experiments.Table) float64 { return cell(t, 0, 6) })
}

func BenchmarkE2Reordering(b *testing.B) {
	benchExperiment(b, experiments.E2Reordering, "best_saving_pct",
		func(t *experiments.Table) float64 { return cell(t, 1, 5) })
}

func BenchmarkE3Sizing(b *testing.B) {
	benchExperiment(b, experiments.E3Sizing, "cap_at_2xDmin_pct",
		func(t *experiments.Table) float64 { return cell(t, len(t.Rows)-1, 3) })
}

func BenchmarkE4DontCare(b *testing.B) {
	benchExperiment(b, experiments.E4DontCare, "best_power_ratio",
		func(t *experiments.Table) float64 {
			best := 1.0
			for i := range t.Rows {
				if v := cell(t, i, 5); v < best {
					best = v
				}
			}
			return best
		})
}

func BenchmarkE5PathBalance(b *testing.B) {
	benchExperiment(b, experiments.E5PathBalance, "mult6_balance_ratio",
		func(t *experiments.Table) float64 { return cell(t, 2, 4) })
}

func BenchmarkE6Factoring(b *testing.B) {
	benchExperiment(b, experiments.E6Factoring, "weighted_cost_ratio",
		func(t *experiments.Table) float64 { return cell(t, 1, 3) / cell(t, 0, 3) })
}

func BenchmarkE7TechMap(b *testing.B) {
	benchExperiment(b, experiments.E7TechMap, "rows",
		func(t *experiments.Table) float64 { return float64(len(t.Rows)) })
}

func BenchmarkE8Encoding(b *testing.B) {
	benchExperiment(b, experiments.E8Encoding, "count8_gray_activity",
		func(t *experiments.Table) float64 { return cell(t, 1, 3) })
}

func BenchmarkE9BusInvert(b *testing.B) {
	benchExperiment(b, experiments.E9BusInvert, "random8_saving_pct",
		func(t *experiments.Table) float64 { return cell(t, 0, 4) })
}

func BenchmarkE10Residue(b *testing.B) {
	benchExperiment(b, experiments.E10Residue, "counting_rns_toggles",
		func(t *experiments.Table) float64 { return cell(t, 1, 3) })
}

func BenchmarkE11Retiming(b *testing.B) {
	benchExperiment(b, experiments.E11Retiming, "mult4_DQ_ratio",
		func(t *experiments.Table) float64 { return cell(t, 0, 1) })
}

func BenchmarkE12GatedClock(b *testing.B) {
	benchExperiment(b, experiments.E12GatedClock, "regbank_ratio",
		func(t *experiments.Table) float64 { return cell(t, len(t.Rows)-1, 4) })
}

func BenchmarkE13Precomputation(b *testing.B) {
	benchExperiment(b, experiments.E13Precomputation, "j1_ratio",
		func(t *experiments.Table) float64 { return cell(t, 1, 5) })
}

func BenchmarkE14ArchModels(b *testing.B) {
	benchExperiment(b, experiments.E14ArchModels, "mult4_walk_activity_err_pct",
		func(t *experiments.Table) float64 { return cell(t, 3, 6) })
}

func BenchmarkE15Behavioral(b *testing.B) {
	benchExperiment(b, experiments.E15Behavioral, "parallel4_power_pct",
		func(t *experiments.Table) float64 { return cell(t, 2, 4) })
}

func BenchmarkE16Software(b *testing.B) {
	benchExperiment(b, experiments.E16Software, "binary_vs_linear_pct",
		func(t *experiments.Table) float64 { return cell(t, 4, 4) })
}

func BenchmarkE17Incremental(b *testing.B) {
	benchExperiment(b, experiments.E17Incremental, "best_reuse_pct",
		func(t *experiments.Table) float64 {
			best := 0.0
			for i := range t.Rows {
				if v := cell(t, i, 4); v > best {
					best = v
				}
			}
			return best
		})
}

func BenchmarkE18BDDSynth(b *testing.B) {
	benchExperiment(b, experiments.E18BDDSynth, "cmp16_sifted_nodes",
		func(t *experiments.Table) float64 { return cell(t, len(t.Rows)-1, 2) })
}

func BenchmarkProbabilityAblation(b *testing.B) {
	benchExperiment(b, experiments.ProbabilityAblation, "cmp8_max_err",
		func(t *experiments.Table) float64 { return cell(t, 0, 1) })
}

// ---- substrate micro-benchmarks ----

func BenchmarkBDDBuildMultiplier(b *testing.B) {
	nw, err := circuits.ArrayMultiplier(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bdd.FromNetwork(nw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactProbabilities(b *testing.B) {
	nw, err := circuits.CLAAdder(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := power.ExactProbabilities(context.Background(), nw, nil, bdd.Budget{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventDrivenSim(b *testing.B) {
	nw, err := circuits.ArrayMultiplier(6)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	st := sim.RandomStimulus(r, 100, len(nw.PIs()), 0.5)
	s, err := sim.New(nw)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventDrivenSimInstrumented runs the identical workload to
// BenchmarkEventDrivenSim with the obsv registry enabled. Metrics are
// updated once per cycle, never per event, so the two should agree within
// noise; compare them by hand, as no gate checks the difference.
func BenchmarkEventDrivenSimInstrumented(b *testing.B) {
	obsv.Enable()
	defer obsv.Disable()
	nw, err := circuits.ArrayMultiplier(6)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	st := sim.RandomStimulus(r, 100, len(nw.PIs()), 0.5)
	s, err := sim.New(nw)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(st); err != nil {
			b.Fatal(err)
		}
	}
}

// uploadShapedDAG builds a seeded random combinational network shaped
// like the netlists clients upload for simulated estimates: 100 two-input
// gates (AND, OR, NAND, NOR, XOR, XNOR) over 8-16 inputs on 6-12 levels,
// each gate taking its fanins mostly from the level below, and every gate
// without fanout driving an output.
func uploadShapedDAG(r *rand.Rand) *logic.Network {
	const gates = 100
	pis, levels := 8+r.Intn(9), 6+r.Intn(7)
	types := []logic.GateType{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor}
	nw := logic.New("upload")
	var sig []logic.NodeID
	for i := 0; i < pis; i++ {
		sig = append(sig, nw.MustInput(fmt.Sprintf("i%d", i)))
	}
	// lo[l] is the first signal of level l; the inputs are level 0.
	lo := []int{0, len(sig)}
	pick := func() int {
		l := len(lo) - 2 // the level below the one being built
		if l > 0 && r.Intn(4) == 0 {
			l = r.Intn(l)
		}
		return lo[l] + r.Intn(lo[l+1]-lo[l])
	}
	for g := 0; g < gates; g++ {
		if g > 0 && g%((gates+levels-1)/levels) == 0 {
			lo = append(lo, len(sig))
		}
		a, c := pick(), pick()
		for c == a {
			c = r.Intn(len(sig))
		}
		sig = append(sig, nw.MustGate(fmt.Sprintf("g%d", g), types[r.Intn(len(types))], sig[a], sig[c]))
	}
	for _, id := range sig[pis:] {
		if len(nw.Node(id).Fanout()) == 0 {
			if err := nw.MarkOutput(id); err != nil {
				panic(err)
			}
		}
	}
	return nw
}

// BenchmarkEventDrivenSimRandom times sequential unit-delay runs of 1024
// random vectors over eight upload-shaped random networks per op: the
// simulated estimates of uploaded netlists, whose cycles touch a few
// dozen gates each.
func BenchmarkEventDrivenSimRandom(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	nets := make([]*logic.Network, 8)
	vecs := make([][][]bool, len(nets))
	for i := range nets {
		nets[i] = uploadShapedDAG(r)
		vecs[i] = sim.RandomVectors(r, 1024, len(nets[i].PIs()), 0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, nw := range nets {
			if _, err := sim.MeasureRunCtx(context.Background(), nw, sim.UnitDelay, vecs[j], 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkZeroDelayStep(b *testing.B) {
	nw, err := circuits.ALU(8)
	if err != nil {
		b.Fatal(err)
	}
	st := logic.NewState(nw)
	in := make([]bool, len(nw.PIs()))
	// The first Step compiles the network's view; time the steady state.
	if _, err := st.Step(in); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in[0] = i%2 == 0
		if _, err := st.Step(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEspressoMinimize(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	covers := make([]*sop.Cover, 16)
	for i := range covers {
		cv := sop.NewCover(6)
		for k := 0; k < 8; k++ {
			c := make(sop.Cube, 6)
			for j := range c {
				c[j] = sop.Lit(r.Intn(3))
			}
			cv.Cubes = append(cv.Cubes, c)
		}
		covers[i] = cv
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sop.Minimize(covers[i%len(covers)], sop.MinimizeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTechnologyMapping(b *testing.B) {
	nw, err := circuits.Comparator(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tmap.Map(nw, tmap.Options{Objective: tmap.MinPower}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBLIFRoundTrip(b *testing.B) {
	nw, err := circuits.ALU(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf strings.Builder
		if err := logic.WriteBLIF(&buf, nw); err != nil {
			b.Fatal(err)
		}
		if _, err := logic.ReadBLIF(strings.NewReader(buf.String())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBLIFUpload parses an upload-sized netlist (the 4-bit ALU as
// BLIF text), the parse behind every /v1/estimate upload.
func BenchmarkReadBLIFUpload(b *testing.B) {
	nw, err := circuits.ALU(4)
	if err != nil {
		b.Fatal(err)
	}
	var buf strings.Builder
	if err := logic.WriteBLIF(&buf, nw); err != nil {
		b.Fatal(err)
	}
	src := buf.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logic.ReadBLIF(strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatePackedStimulus is a packed estimate as the server runs
// one: draw 8,704 vectors (the mean of the estimate workload's packed
// requests) as a packed stimulus, then power.Estimate on the 6x6 array
// multiplier.
func BenchmarkEstimatePackedStimulus(b *testing.B) {
	nw, err := circuits.ArrayMultiplier(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := power.Spec{Method: power.MethodPacked, Params: power.DefaultParams(),
			Vectors: sim.RandomStimulus(rand.New(rand.NewSource(int64(i))), 8704, len(nw.PIs()), 0.5)}
		if _, err := power.Estimate(context.Background(), nw, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation benchmarks (the design-choice knobs DESIGN.md calls out) ----

// BenchmarkAblationEncoderQuality compares the annealed encoder against
// its greedy constructive start across the FSM corpus; the metric is the
// summed weighted activity ratio (anneal / greedy, <= 1).
func BenchmarkAblationEncoderQuality(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(7))
		sumG, sumA := 0.0, 0.0
		for _, g := range stg.Corpus() {
			sumG += encode.WeightedActivity(g, encode.Greedy(g))
			sumA += encode.WeightedActivity(g, encode.Anneal(g, r, encode.AnnealOptions{Iterations: 6000}))
		}
		ratio = sumA / sumG
	}
	b.ReportMetric(ratio, "anneal_over_greedy")
}

// BenchmarkAblationGatingBreakEven reports the clock capacitance at which
// FSM self-loop gating breaks even on the idler machine, found by
// bisection — the overhead-vs-saving crossover of §III.C.3.
func BenchmarkAblationGatingBreakEven(b *testing.B) {
	g := stg.Corpus()["idler"]
	e := encode.MinimalBinary(g)
	base, err := encode.Synthesize(g, e)
	if err != nil {
		b.Fatal(err)
	}
	gated, err := gating.GateSelfLoops(g, e)
	if err != nil {
		b.Fatal(err)
	}
	p := power.DefaultParams()
	saving := func(clockCap float64) float64 {
		rb, err := gating.MeasureClockPower(base, logic.InvalidNode, nil, rand.New(rand.NewSource(9)), 1500, p, clockCap, nil)
		if err != nil {
			b.Fatal(err)
		}
		rg, err := gating.MeasureClockPower(gated.Network, gated.Enable, gated.HoldMuxes, rand.New(rand.NewSource(9)), 1500, p, clockCap, nil)
		if err != nil {
			b.Fatal(err)
		}
		return rb.Total() - rg.Total()
	}
	var breakeven float64
	for i := 0; i < b.N; i++ {
		lo, hi := 0.1, 16.0
		for it := 0; it < 20; it++ {
			mid := (lo + hi) / 2
			if saving(mid) > 0 {
				hi = mid
			} else {
				lo = mid
			}
		}
		breakeven = (lo + hi) / 2
	}
	b.ReportMetric(breakeven, "breakeven_clock_cap")
}

// BenchmarkAblationEstimatorLadder reports the three probabilistic
// estimates relative to timed simulation on the glitchy multiplier:
// zero-delay (underestimates), transition density (conservative upper
// estimate) — simulation sits in between.
func BenchmarkAblationEstimatorLadder(b *testing.B) {
	nw, err := circuits.ArrayMultiplier(5)
	if err != nil {
		b.Fatal(err)
	}
	p := power.DefaultParams()
	r := rand.New(rand.NewSource(5))
	vecs := sim.RandomStimulus(r, 300, len(nw.PIs()), 0.5)
	var totals [3]float64
	for i := 0; i < b.N; i++ {
		for j, m := range []power.Method{power.MethodExact, power.MethodDensity, power.MethodSimulated} {
			rep, err := power.Estimate(context.Background(), nw, power.Spec{Method: m, Params: p, Vectors: vecs})
			if err != nil {
				b.Fatal(err)
			}
			totals[j] = rep.Total()
		}
	}
	zd, dens, simP := totals[0], totals[1], totals[2]
	b.ReportMetric(zd/simP, "zerodelay_over_sim")
	b.ReportMetric(dens/simP, "density_over_sim")
}

// BenchmarkAblationGuardedEvaluation reports the region-switching ratio of
// guarded evaluation [44] on the deep-cone example.
func BenchmarkAblationGuardedEvaluation(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		nw := logic.New("guard")
		var xs []logic.NodeID
		for j := 0; j < 3; j++ {
			xs = append(xs, nw.MustInput(string(rune('a'+j))))
		}
		en := nw.MustInput("en")
		acc := nw.MustGate("p1", logic.Xor, xs[0], xs[1])
		for j := 2; j <= 16; j++ {
			mix := nw.MustGate("m"+strconv.Itoa(j), logic.And, acc, xs[j%3])
			acc = nw.MustGate("p"+strconv.Itoa(j), logic.Xor, mix, xs[(j+1)%3])
		}
		out := nw.MustGate("out", logic.And, acc, en)
		if err := nw.MarkOutput(out); err != nil {
			b.Fatal(err)
		}
		orig := nw.Clone()
		var origRegion []logic.NodeID
		for id := range precomp.Region(orig, acc) {
			origRegion = append(origRegion, id)
		}
		gc, err := precomp.GuardEvaluation(nw, acc)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := precomp.MeasureGuard(orig, gc, origRegion, rand.New(rand.NewSource(3)), 1000, power.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if rep.Mismatches != 0 {
			b.Fatal("guarded circuit diverged")
		}
		ratio = float64(rep.RegionToggles) / float64(rep.BaselineToggles)
	}
	b.ReportMetric(ratio, "region_toggle_ratio")
}

// BenchmarkAblationDecomposition reports the power-mapping quality ratio
// of balanced versus left-deep technology decomposition ([48]) on the
// decoder benchmark.
func BenchmarkAblationDecomposition(b *testing.B) {
	nw, err := circuits.Decoder(4)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		mLeft, err := tmap.Map(nw, tmap.Options{Objective: tmap.MinPower})
		if err != nil {
			b.Fatal(err)
		}
		mBal, err := tmap.Map(nw, tmap.Options{Objective: tmap.MinPower,
			Decompose: tmap.DecomposeOptions{Balanced: true}})
		if err != nil {
			b.Fatal(err)
		}
		ratio = mBal.Power / mLeft.Power
	}
	b.ReportMetric(ratio, "balanced_over_leftdeep_power")
}

// BenchmarkSimPackedVsScalar pits the bit-parallel packed engine against
// the scalar zero-delay path on a 1064-gate array multiplier at 4096
// vectors. Both compute identical per-node transition counts; the packed
// engine evaluates 64 vectors per word, so the target is a >=10x speedup
// (compare the two sub-benchmarks' ns/op).
func BenchmarkSimPackedVsScalar(b *testing.B) {
	nw, err := circuits.ArrayMultiplier(14) // 1064 gates
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	vecs := sim.RandomVectors(r, 4096, len(nw.PIs()), 0.5)

	b.Run("scalar", func(b *testing.B) {
		st := logic.NewState(nw)
		prev := make([]bool, nw.NumNodes())
		count := make([]int64, nw.NumNodes())
		gates := nw.Gates()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range vecs {
				if _, err := st.Step(v); err != nil {
					b.Fatal(err)
				}
				for _, id := range gates {
					if got := st.Value(id); got != prev[id] {
						count[id]++
						prev[id] = got
					}
				}
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		ps, err := sim.NewPacked(nw)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ps.Run(vecs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchRewritePass builds an ExtraPasses entry that applies one
// function-preserving double-negation rewrite (And/Or gate g becomes
// Not(Nand/Nor over g's fanins)) to the deepest remaining And/Or gate —
// the last one in topological order. A rewritten gate stops being a
// candidate, so consecutive passes walk deterministically backwards from
// the outputs: the canonical local-rewrite workload incremental
// re-estimation is built for.
func benchRewritePass(name string) core.Pass {
	return core.Pass{
		Name: name, Level: "logic",
		Description: "function-preserving double-negation rewrite (bench)",
		Run: func(nw *logic.Network, ctx *core.Context) error {
			order, err := nw.TopoOrder()
			if err != nil {
				return err
			}
			target := logic.InvalidNode
			for _, id := range order {
				n := nw.Node(id)
				if (n.Type == logic.And || n.Type == logic.Or) && len(n.Fanin) >= 2 {
					target = id
				}
			}
			if target == logic.InvalidNode {
				return nil
			}
			n := nw.Node(target)
			inv := logic.Nand
			if n.Type == logic.Or {
				inv = logic.Nor
			}
			g, err := nw.AddGate(name+"_inv", inv, n.Fanin...)
			if err != nil {
				return err
			}
			nn, err := nw.AddGate(name+"_not", logic.Not, g)
			if err != nil {
				return err
			}
			return nw.ReplaceNode(target, nn)
		},
	}
}

// BenchmarkFlowIncrementalVsFull times a 12-pass local-rewrite flow on
// the 1064-gate array multiplier at 16384 simulation vectors, measured
// with the incremental estimation engines. Sub-benchmark "incremental"
// splices each pass's dirty cone into the carried baseline; "full" sets
// Context.FullRecompute, discarding the baseline before every
// measurement — the identical-engines from-scratch reference. The two
// rendered trajectories are asserted byte-identical before any timing;
// the target is a >=5x wall-clock win for the incremental path (compare
// the sub-benchmarks' ns/op).
func BenchmarkFlowIncrementalVsFull(b *testing.B) {
	base, err := circuits.ArrayMultiplier(14) // 1064 gates
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	vecs := sim.RandomVectors(r, 16384, len(base.PIs()), 0.5)

	const passes = 12
	run := func(full bool) (string, error) {
		nw := base.Clone()
		fctx := core.NewContext(nw, 1)
		fctx.Vectors = vecs
		fctx.Incremental = true
		fctx.FullRecompute = full
		fctx.ExtraPasses = map[string]core.Pass{}
		flow := core.Flow{Name: "rewrite"}
		for i := 0; i < passes; i++ {
			name := fmt.Sprintf("rw%d", i)
			fctx.ExtraPasses[name] = benchRewritePass(name)
			flow.Passes = append(flow.Passes, name)
		}
		rep, err := core.RunFlow(nw, flow, fctx)
		if err != nil {
			return "", err
		}
		return rep.String(), nil
	}

	// Correctness gate: both modes must render byte-identical
	// trajectories before either is worth timing.
	incr, err := run(false)
	if err != nil {
		b.Fatal(err)
	}
	full, err := run(true)
	if err != nil {
		b.Fatal(err)
	}
	if incr != full {
		b.Fatalf("incremental trajectory diverged from full recompute:\n%s\nvs\n%s", incr, full)
	}

	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := run(false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := run(true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEstimateSimulated times the event-driven power estimate
// (power.EstimateSimulatedParallel) of the 8-bit array multiplier over
// 512 random vectors: one Simulator run plus the Eqn. 1 evaluation.
func BenchmarkEstimateSimulated(b *testing.B) {
	nw, err := circuits.ArrayMultiplier(8)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	vecs := sim.RandomVectors(r, 512, len(nw.PIs()), 0.5)
	p := power.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := power.EstimateSimulatedParallel(nw, p, nil, sim.UnitDelay, vecs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBddSiftVsFixed builds the 12-bit comparator's global BDDs
// under the fixed declaration order, with dynamic sifting from that
// order, and under the default depth-first order. The
// node-count metric is the point: the declaration order needs tens of
// thousands of nodes, sifting finds an interleaved order a couple of
// orders of magnitude smaller, and the depth-first order starts
// interleaved without sifting at all.
func BenchmarkBddSiftVsFixed(b *testing.B) {
	nw, err := circuits.Comparator(12)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opt  bdd.BuildOptions
	}{
		{"fixed", bdd.BuildOptions{DeclarationOrder: true}},
		{"sifted", bdd.BuildOptions{DeclarationOrder: true, Reorder: bdd.ReorderPolicy{Enable: true}}},
		{"dfs", bdd.BuildOptions{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			nodes := 0
			for i := 0; i < b.N; i++ {
				nb, err := bdd.FromNetworkOpts(context.Background(), nw, bc.opt)
				if err != nil {
					b.Fatal(err)
				}
				nodes = nb.M.Size() - 2
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// splitEquality builds the 16-bit split-equality net of the power
// package's reorder tests: the first output ORs every a_i, so the
// depth-first walk levels all the a_i before any b_i, which is
// exponential for the equality output behind it.
func splitEquality(b *testing.B, n int) *logic.Network {
	b.Helper()
	nw := logic.New(fmt.Sprintf("spliteq%d", n))
	as := make([]logic.NodeID, n)
	xs := make([]logic.NodeID, n)
	for i := range as {
		as[i] = nw.MustInput(fmt.Sprintf("a%d", i))
		bi := nw.MustInput(fmt.Sprintf("b%d", i))
		xs[i] = nw.MustGate(fmt.Sprintf("x%d", i), logic.Xnor, as[i], bi)
	}
	anyA := nw.MustGate("any", logic.Or, as...)
	eq := xs[0]
	for i, x := range xs[1:] {
		eq = nw.MustGate(fmt.Sprintf("eq%d", i+1), logic.And, eq, x)
	}
	for _, o := range []logic.NodeID{anyA, eq} {
		if err := nw.MarkOutput(o); err != nil {
			b.Fatal(err)
		}
	}
	return nw
}

// BenchmarkExactReorderRetry times the exact estimate of the 16-bit
// split-equality net under a 20000-node budget. Its depth-first order
// trips the budget, so every estimate climbs the ladder's reorder-retry
// rung: a sifted rebuild that fits. The degraded metric (estimates that
// fell through to Monte Carlo) must stay 0.
func BenchmarkExactReorderRetry(b *testing.B) {
	nw := splitEquality(b, 16)
	p := power.DefaultParams()
	spec := power.Spec{Method: power.MethodExact, Params: p,
		ExactOptions: power.ExactOptions{Budget: bdd.Budget{MaxNodes: 20000}}}
	degraded := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := power.Estimate(context.Background(), nw, spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Degraded {
			degraded++
		}
	}
	b.ReportMetric(float64(degraded), "degraded")
}

// BenchmarkExactWideDFS times the exact estimate of the 16-bit
// comparator with a zero budget. The default depth-first order holds
// it in 186 BDD nodes (the declaration order needed about 459k), so the
// run measures the per-estimate fixed costs: the build, the probability
// walk and the power sum.
func BenchmarkExactWideDFS(b *testing.B) {
	nw, err := circuits.Comparator(16)
	if err != nil {
		b.Fatal(err)
	}
	spec := power.Spec{Method: power.MethodExact, Params: power.DefaultParams()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := power.Estimate(context.Background(), nw, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTruthTable times the exhaustive truth table behind
// logic.Equivalent — what every verified flow pass pays — on the two
// 16-input generators, at 64 rows per machine word.
func BenchmarkTruthTable(b *testing.B) {
	for _, name := range []string{"cmp8", "par16"} {
		nw, err := circuits.Named(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := nw.TruthTable(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDontCarePass times one don't-care pass, with observability
// don't-cares as the flows run it, on the strashed multiplier and
// carry-lookahead adder under the Area and NetworkPower objectives. Each
// iteration rewrites a fresh clone; the clone is not timed.
func BenchmarkDontCarePass(b *testing.B) {
	for _, name := range []string{"mult5", "cla8"} {
		base, err := circuits.Named(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := logic.Strash(base); err != nil {
			b.Fatal(err)
		}
		for _, obj := range []dontcare.Objective{dontcare.Area, dontcare.NetworkPower} {
			b.Run(name+"/"+obj.String(), func(b *testing.B) {
				opts := dontcare.Options{Objective: obj, UseODC: true}
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					nw := base.Clone()
					b.StartTimer()
					if _, err := dontcare.OptimizeNetwork(nw, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFlowStandard times whole standard flows as a client runs
// them: mult5 and cla8 under bddmux and lowpower, full (non-incremental)
// measurement after every pass, per-pass verification on,
// NewContext(nw, 1). Each iteration runs on a fresh clone with a fresh
// context; neither is timed.
func BenchmarkFlowStandard(b *testing.B) {
	for _, name := range []string{"mult5", "cla8"} {
		base, err := circuits.Named(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, flowName := range []string{"bddmux", "lowpower"} {
			flow := core.StandardFlows()[flowName]
			b.Run(name+"/"+flowName, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					nw := base.Clone()
					fctx := core.NewContext(nw, 1)
					b.StartTimer()
					if _, err := core.RunFlow(nw, flow, fctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBddSynthPass times the bddsynth pass as the flow benchmark
// runs it, through the pass registry: on each of its 12 named circuits,
// strashed, under the pass's default 1M-node BDD budget for the eight
// narrow ones and 20,000 nodes for the four wide ones, NewContext(nw, 1).
// One iteration runs the pass once on every circuit, each on a fresh
// clone; the clones are not timed.
func BenchmarkBddSynthPass(b *testing.B) {
	pass := core.Registry()["bddsynth"]
	var bases []*logic.Network
	var fctxs []*core.Context
	for _, c := range []struct {
		name   string
		budget int
	}{
		{"alu4", 0}, {"cla8", 0}, {"cmp8", 0}, {"dec5", 0},
		{"mult4", 0}, {"mult5", 0}, {"par16", 0}, {"radd8", 0},
		{"cmp16", 20000}, {"radd16", 20000}, {"mult6", 20000}, {"mux16", 20000},
	} {
		nw, err := circuits.Named(c.name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := logic.Strash(nw); err != nil {
			b.Fatal(err)
		}
		fctx := core.NewContext(nw, 1)
		fctx.ExactBudget = bdd.Budget{MaxNodes: c.budget}
		bases, fctxs = append(bases, nw), append(fctxs, fctx)
	}
	nws := make([]*logic.Network, len(bases))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, base := range bases {
			nws[j] = base.Clone()
		}
		b.StartTimer()
		for j, nw := range nws {
			if err := pass.Run(nw, fctxs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBDDBuildCmp16Declaration times E18's largest build: the 16-bit
// comparator's global BDDs under the declaration order, about 459k
// nodes. Its bytes per op follow the node arena's growth policy.
func BenchmarkBDDBuildCmp16Declaration(b *testing.B) {
	nw, err := circuits.Comparator(16)
	if err != nil {
		b.Fatal(err)
	}
	opt := bdd.BuildOptions{DeclarationOrder: true}
	nodes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nb, err := bdd.FromNetworkOpts(context.Background(), nw, opt)
		if err != nil {
			b.Fatal(err)
		}
		nodes = nb.M.Size() - 2
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkServerEstimateHit is one /v1/estimate answered from the result
// cache, through the routed handler with its middleware and with the
// access log on, as lpserverd (stderr) and lpbench (io.Discard) both run
// it. The key is a warm simulated cla8 estimate: the engines do no work,
// so ns/op and allocs/op are the serving layer's own cost per repeat
// query. It sits last in the file because server.New enables the process
// metrics registry, which the benchmarks above run without.
func BenchmarkServerEstimateHit(b *testing.B) {
	h := server.New(server.Config{AccessLog: io.Discard}).Handler()
	body := []byte(`{"circuit":"cla8","estimator":"simulated","vectors":256,"seed":7,"p1":0.3}`)
	serve := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return rec
	}
	serve() // the miss that fills the result cache
	if got := serve().Header().Get("X-Cache"); got != "hit" {
		b.Fatalf("warm request: X-Cache %q, want hit", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}
