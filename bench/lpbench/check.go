package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/sim"
)

// goldenText is `go run ./cmd/experiments` at the commit that defined this
// benchmark: every table E1-E18 and E4b.
//
//go:embed testdata/experiments.golden.txt
var goldenText string

// goldenTables splits the golden output into tables by ID, each exactly
// as experiments.Table.Format renders it.
func goldenTables() map[string]string {
	out := map[string]string{}
	for _, sec := range strings.Split("\n"+goldenText, "\n== ")[1:] {
		id, _, _ := strings.Cut(sec, ":")
		out[id] = "== " + strings.TrimRight(sec, "\n") + "\n"
	}
	return out
}

// checkSuite compares one suite's tables with the golden.
func checkSuite(res []experiments.Result, golden map[string]string) error {
	for _, r := range res {
		if r.Err != nil {
			return fmt.Errorf("experiment %s: %w", r.ID, r.Err)
		}
		if got := r.Table.Format(); got != golden[r.ID] {
			return fmt.Errorf("experiment %s: table differs from the golden:\n%s", r.ID, got)
		}
	}
	return nil
}

// checkEstimate verifies a served /v1/estimate body. The body must equal
// the one a direct re-execution builds, and its total must agree with an
// oracle.
func checkEstimate(q server.EstimateRequest, body []byte) error {
	want, err := newReplayer(nil).estimate(context.Background(), q)
	if err != nil {
		return fmt.Errorf("re-executing %s: %w", estimateClass(q), err)
	}
	if !bytes.Equal(want, body) {
		return fmt.Errorf("%s: served body differs from a direct re-execution:\nserved: %s\ndirect: %s", estimateClass(q), body, want)
	}
	return checkTotal(q, body)
}

// checkTotal compares a served total with an oracle that shares no code
// with the serving path where one exists: truth-table enumeration for
// exact, scalar zero-delay stepping for packed; a single-threaded library
// call otherwise.
func checkTotal(q server.EstimateRequest, body []byte) error {
	var got server.EstimateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	oracle, tol, err := oracleTotal(q, got.Power.Degraded)
	if err != nil {
		return fmt.Errorf("%s: oracle: %w", estimateClass(q), err)
	}
	if d := math.Abs(got.Power.Total - oracle); d > tol*math.Abs(oracle) {
		return fmt.Errorf("%s: served total %v, oracle %v", estimateClass(q), got.Power.Total, oracle)
	}
	return nil
}

// oracleTotal computes a request's power total independently of the
// serving path, with the relative tolerance it must be matched to.
func oracleTotal(q server.EstimateRequest, degraded bool) (float64, float64, error) {
	nw, err := network(q.Circuit, q.BLIF)
	if err != nil {
		return 0, 0, err
	}
	p := power.DefaultParams()
	seq := len(nw.FFs()) > 0
	inProb := power.Probabilities{}
	for _, pi := range nw.PIs() {
		inProb[pi] = 0.5
	}
	if seq {
		if inProb, err = power.SequentialProbabilities(nw, rand.New(rand.NewSource(q.Seed)), 2000, 0.5); err != nil {
			return 0, 0, err
		}
	}
	vecs := func() [][]bool {
		return sim.RandomVectors(rand.New(rand.NewSource(q.Seed)), q.Vectors, len(nw.PIs()), 0.5)
	}
	switch {
	case q.Estimator == "exact" && !degraded && !seq && len(nw.PIs()) <= 16:
		ps, err := truthTableProbabilities(nw)
		if err != nil {
			return 0, 0, err
		}
		return power.Evaluate(nw, p, nil, ps.Activity).Total(), 1e-9, nil
	case q.Estimator == "exact":
		rep, err := power.EstimateExactCtx(context.Background(), nw, p, nil, inProb, power.ExactOptions{
			Budget: bdd.Budget{MaxNodes: q.BDDMaxNodes, MaxSteps: q.BDDMaxSteps}, MCVectors: q.Vectors, MCSeed: q.Seed})
		return rep.Total(), 0, err
	case q.Estimator == "packed":
		total, err := scalarZeroDelayTotal(nw, p, vecs())
		return total, 0, err
	case q.Estimator == "simulated":
		rep, _, err := power.EstimateSimulatedParallel(nw, p, nil, sim.UnitDelay, vecs(), 1)
		return rep.Total(), 0, err
	case q.Estimator == "propagated":
		rep, err := power.EstimatePropagated(nw, p, nil, inProb)
		return rep.Total(), 0, err
	}
	return 0, 0, fmt.Errorf("no oracle for estimator %q", q.Estimator)
}

func network(circuit, blif string) (*logic.Network, error) {
	if circuit != "" {
		return circuits.Named(circuit)
	}
	return logic.ReadBLIF(strings.NewReader(blif))
}

// truthTableProbabilities enumerates all 2^n input vectors of a
// combinational network at once, one bit per vector, and returns every
// live node's exact 1-probability under uniform inputs.
func truthTableProbabilities(nw *logic.Network) (power.Probabilities, error) {
	n := len(nw.PIs())
	rows := 1 << n
	words := (rows + 63) / 64
	mask := ^uint64(0)
	if rows < 64 {
		mask = 1<<rows - 1
	}
	val := map[logic.NodeID][]uint64{}
	for j, pi := range nw.PIs() {
		w := make([]uint64, words)
		for m := 0; m < rows; m++ {
			if m&(1<<j) != 0 {
				w[m/64] |= 1 << (m % 64)
			}
		}
		val[pi] = w
	}
	order, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		nd := nw.Node(id)
		w := make([]uint64, words)
		for k := range w {
			var v uint64
			switch nd.Type {
			case logic.Const0:
			case logic.Const1:
				v = ^uint64(0)
			case logic.Buf, logic.Not:
				v = val[nd.Fanin[0]][k]
			case logic.And, logic.Nand:
				v = ^uint64(0)
				for _, f := range nd.Fanin {
					v &= val[f][k]
				}
			case logic.Or, logic.Nor:
				for _, f := range nd.Fanin {
					v |= val[f][k]
				}
			case logic.Xor, logic.Xnor:
				for _, f := range nd.Fanin {
					v ^= val[f][k]
				}
			default:
				return nil, fmt.Errorf("truth table: unsupported node %s of type %s", nd.Name, nd.Type)
			}
			switch nd.Type {
			case logic.Not, logic.Nand, logic.Nor, logic.Xnor:
				v = ^v
			}
			w[k] = v & mask
		}
		val[id] = w
	}
	ps := make(power.Probabilities, len(val))
	for id, w := range val {
		ones := 0
		for _, x := range w {
			ones += bits.OnesCount64(x)
		}
		ps[id] = float64(ones) / float64(rows)
	}
	return ps, nil
}

// scalarZeroDelayTotal steps the network one vector at a time under the
// zero-delay model (logic.State) from the settled reset state, counting
// every live node's toggles: the scalar reference for the packed engine.
func scalarZeroDelayTotal(nw *logic.Network, p power.Params, vecs [][]bool) (float64, error) {
	st := logic.NewState(nw)
	if err := st.Settle(); err != nil {
		return 0, err
	}
	live := nw.Live()
	prev := make(map[logic.NodeID]bool, len(live))
	for _, id := range live {
		prev[id] = st.Value(id)
	}
	toggles := map[logic.NodeID]int64{}
	for _, v := range vecs {
		if _, err := st.Step(v); err != nil {
			return 0, err
		}
		for _, id := range live {
			if x := st.Value(id); x != prev[id] {
				toggles[id]++
				prev[id] = x
			}
		}
	}
	return power.Evaluate(nw, p, nil, func(id logic.NodeID) float64 {
		return float64(toggles[id]) / float64(len(vecs))
	}).Total(), nil
}

// checkFlow verifies a served /v1/flow body: it must equal a direct
// re-execution, and its steps must equal those of core.RunFlowCtx on a
// fresh copy of the circuit.
func checkFlow(q server.FlowRequest, body []byte) error {
	want, err := newReplayer(nil).flow(context.Background(), q)
	if err != nil {
		return fmt.Errorf("re-executing %s: %w", flowClass(q), err)
	}
	if !bytes.Equal(want, body) {
		return fmt.Errorf("%s: served body differs from a direct re-execution:\nserved: %s\ndirect: %s", flowClass(q), body, want)
	}
	var got server.FlowResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	nw, err := network(q.Circuit, q.BLIF)
	if err != nil {
		return err
	}
	fctx := core.NewContext(nw, q.Seed)
	fctx.ExactBudget = bdd.Budget{MaxNodes: q.BDDMaxNodes, MaxSteps: q.BDDMaxSteps}
	fctx.Incremental = q.Incremental
	rep, err := core.RunFlowCtx(context.Background(), nw, core.StandardFlows()[q.Flow], fctx)
	if err != nil {
		return fmt.Errorf("%s: core.RunFlowCtx: %w", flowClass(q), err)
	}
	if len(rep.Steps) != len(got.Steps) {
		return fmt.Errorf("%s: %d served steps, core.RunFlowCtx gives %d", flowClass(q), len(got.Steps), len(rep.Steps))
	}
	for i, s := range rep.Steps {
		if snapshotJSON(s) != got.Steps[i] {
			return fmt.Errorf("%s: step %d served %+v, core.RunFlowCtx gives %+v", flowClass(q), i, got.Steps[i], snapshotJSON(s))
		}
	}
	return nil
}
