package power

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// Probabilities holds per-node static signal probabilities: the probability
// that the node's output is 1 in a randomly chosen cycle.
type Probabilities map[logic.NodeID]float64

// Activity converts signal probabilities to zero-delay switching activity
// under the temporal-independence assumption: a net with probability p
// toggles with probability 2·p·(1−p) per cycle.
func (ps Probabilities) Activity(id logic.NodeID) float64 {
	p := ps[id]
	return 2 * p * (1 - p)
}

// ExactProbabilities computes exact signal probabilities for every node
// via global BDDs, under a context and a BDD resource budget (the zero
// Budget is unlimited). inputProb maps circuit source nodes (PIs and FF
// outputs) to their 1-probability; missing entries default to 0.5.
// Reconvergent fanout is handled exactly — this is the reference against
// which the propagation approximation is measured. On budget exhaustion
// or cancellation it returns a *bdd.BudgetError (matching
// bdd.ErrBudgetExceeded).
//
// The first build uses the default depth-first variable order (see
// bdd.FromNetworkOpts). When that order blows the budget, it retries
// once with dynamic sifting reordering (the exact -> reorder -> retry
// rung of the degradation ladder) before the caller falls back to Monte
// Carlo; successful retries increment the power.exact.reordered
// counter. A cancelled context is never retried — the caller asked to
// stop.
func ExactProbabilities(ctx context.Context, nw *logic.Network, inputProb Probabilities, b bdd.Budget) (Probabilities, error) {
	nb, err := bdd.FromNetworkCtx(ctx, nw, b)
	if err != nil {
		if !errors.Is(err, bdd.ErrBudgetExceeded) || ctx.Err() != nil {
			return nil, err
		}
		nb, err = bdd.FromNetworkOpts(ctx, nw, bdd.BuildOptions{
			Budget:  b,
			Reorder: bdd.ReorderPolicy{Enable: true},
		})
		if err != nil {
			return nil, err
		}
		obsv.Default().Counter("power.exact.reordered").Inc()
	}
	pv := make([]float64, nb.M.NumVars())
	for i, src := range nb.Vars {
		p, ok := inputProb[src]
		if !ok {
			p = 0.5
		}
		pv[i] = p
	}
	ids := make([]logic.NodeID, 0, len(nb.Fn))
	fs := make([]bdd.Ref, 0, len(nb.Fn))
	for id, f := range nb.Fn {
		ids = append(ids, id)
		fs = append(fs, f)
	}
	out := make(Probabilities, len(ids))
	for i, p := range nb.M.Probabilities(fs, pv) {
		out[ids[i]] = p
	}
	obsv.Default().Counter("power.exact.nodes").Add(int64(len(nb.Fn)))
	return out, nil
}

// PropagatedProbabilities computes approximate signal probabilities by
// forward propagation assuming spatial independence of gate inputs — fast
// but inexact under reconvergent fanout. XOR-class gates are computed by
// enumerating input combinations (fanin is small in mapped netlists).
func PropagatedProbabilities(nw *logic.Network, inputProb Probabilities) (Probabilities, error) {
	out := make(Probabilities)
	for _, src := range append(append([]logic.NodeID(nil), nw.PIs()...), nw.FFs()...) {
		p, ok := inputProb[src]
		if !ok {
			p = 0.5
		}
		out[src] = p
	}
	order, err := nw.TopoOrder()
	if err != nil {
		return nil, err
	}
	propagated := 0
	var buf []float64
	for _, id := range order {
		n := nw.Node(id)
		p, counted, err := propagateNode(n, out, &buf)
		if err != nil {
			return nil, err
		}
		out[id] = p
		if counted {
			propagated++
		}
	}
	obsv.Default().Counter("power.prop.nodes").Add(int64(propagated))
	return out, nil
}

// propagateNode computes one node's propagated probability from the
// already-filled table of its fanins. It is the single propagation kernel
// shared by the full forward pass and incremental cone re-propagation
// (IncrementalEstimator), so the two paths are bit-identical by
// construction — same fanin read order, same float operations. The
// second result reports whether the node went through a gate rule (what
// the power.prop.nodes counter counts); buf is scratch reused across
// calls.
func propagateNode(n *logic.Node, table Probabilities, buf *[]float64) (float64, bool, error) {
	switch n.Type {
	case logic.Const0:
		return 0, false, nil
	case logic.Const1:
		return 1, false, nil
	default:
		ps := (*buf)[:0]
		for _, f := range n.Fanin {
			ps = append(ps, table[f])
		}
		*buf = ps
		p, err := gateProb(n.Type, ps)
		return p, true, err
	}
}

func gateProb(t logic.GateType, ps []float64) (float64, error) {
	switch t {
	case logic.Buf:
		return ps[0], nil
	case logic.Not:
		return 1 - ps[0], nil
	case logic.And:
		p := 1.0
		for _, q := range ps {
			p *= q
		}
		return p, nil
	case logic.Nand:
		p := 1.0
		for _, q := range ps {
			p *= q
		}
		return 1 - p, nil
	case logic.Or:
		p := 1.0
		for _, q := range ps {
			p *= 1 - q
		}
		return 1 - p, nil
	case logic.Nor:
		p := 1.0
		for _, q := range ps {
			p *= 1 - q
		}
		return p, nil
	case logic.Xor, logic.Xnor:
		// P(odd number of ones); independent inputs give the closed form
		// (1 - prod(1-2p_i)) / 2.
		prod := 1.0
		for _, q := range ps {
			prod *= 1 - 2*q
		}
		pOdd := (1 - prod) / 2
		if t == logic.Xor {
			return pOdd, nil
		}
		return 1 - pOdd, nil
	}
	return 0, fmt.Errorf("power: no probability rule for gate type %s", t)
}

// SequentialProbabilities estimates flip-flop output probabilities by
// warm-up simulation under random primary inputs with the given bias, then
// returns a Probabilities map covering the PIs (set to piProb) and FFs
// (measured). This is the simulation-based abstraction of Monteiro and
// Devadas [28]: the combinational estimators can then treat FF outputs as
// independent sources.
func SequentialProbabilities(nw *logic.Network, r *rand.Rand, cycles int, piProb float64) (Probabilities, error) {
	s, err := sim.NewStream(nw)
	if err != nil {
		return nil, err
	}
	if err := s.Run(context.Background(), sim.RandomStimulus(r, cycles, len(nw.PIs()), piProb), nil); err != nil {
		return nil, err
	}
	out := make(Probabilities)
	for _, pi := range nw.PIs() {
		out[pi] = piProb
	}
	for i, f := range nw.FFs() {
		out[f] = 0.5
		if cycles > 0 {
			out[f] = float64(s.FFOnes(i)) / float64(cycles)
		}
	}
	return out, nil
}

// EstimatePropagated produces an Eqn. 1 report from propagated
// (independence-assumption) zero-delay activity.
func EstimatePropagated(nw *logic.Network, p Params, cm CapModel, inputProb Probabilities) (Report, error) {
	ps, err := PropagatedProbabilities(nw, inputProb)
	if err != nil {
		return Report{}, err
	}
	return Evaluate(nw, p, cm, ps.Activity), nil
}
