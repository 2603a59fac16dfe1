package power

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/obsv/trace"
)

// ExactOptions configures budgeted exact estimation and its Monte Carlo
// fallback. The zero value means: no BDD budget, 2048 fallback vectors,
// seed 1.
type ExactOptions struct {
	// Budget bounds the BDD construction; when it trips (or the context
	// is cancelled) EstimateExactCtx degrades to packed Monte Carlo
	// instead of failing.
	Budget bdd.Budget
	// MCVectors is the number of Monte Carlo vectors used by the fallback
	// path (default 2048).
	MCVectors int
	// MCSeed seeds the fallback vector stream (default 1), so degraded
	// reports are reproducible.
	MCSeed int64
}

func (o ExactOptions) vectors() int {
	if o.MCVectors <= 0 {
		return 2048
	}
	return o.MCVectors
}

func (o ExactOptions) seed() int64 {
	if o.MCSeed == 0 {
		return 1
	}
	return o.MCSeed
}

// EstimateExactCtx produces an Eqn. 1 report from exact (BDD) zero-delay
// activity, under a context deadline and a BDD resource budget. When the
// exact computation exceeds the budget — the exponential-size blowup risk
// inherent to BDDs — it first retries with dynamic variable reordering
// (via ExactProbabilities); only if the sifted order still cannot fit
// the budget does it fail over. Even then it does not fail: it degrades to the
// bit-parallel packed Monte Carlo estimator over opt.MCVectors vectors
// drawn with each input's declared 1-probability, marks the report with
// Degraded=true and the budget error as DegradeReason, and increments the
// power.exact.degraded counter. Reports whose budget was never hit are
// bit-identical to an unbudgeted run.
//
// Cancellation of ctx itself (an expired deadline or an explicit cancel)
// is not degraded: it aborts with the context's error, because the caller
// asked the whole computation to stop. Use Budget to bound work while
// still getting a (degraded) result. Non-budget errors (malformed
// networks) are returned as errors too.
func EstimateExactCtx(ctx context.Context, nw *logic.Network, p Params, cm CapModel, inputProb Probabilities, opt ExactOptions) (Report, error) {
	ctx, sp := trace.Start(ctx, "power.exact")
	defer sp.End()
	ps, err := ExactProbabilities(ctx, nw, inputProb, opt.Budget)
	if err == nil {
		sp.SetAttr("degraded", false)
		return Evaluate(nw, p, cm, ps.Activity), nil
	}
	if !errors.Is(err, bdd.ErrBudgetExceeded) {
		return Report{}, err
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		// The context itself was cancelled or expired: the caller wants
		// out, so do not burn more time on the fallback.
		return Report{}, fmt.Errorf("power: exact estimation aborted: %w", ctxErr)
	}
	// Budget exhausted: fall back to Monte Carlo, the survey's own answer
	// to intractable exact analysis.
	obsv.Default().Counter("power.exact.degraded").Inc()
	sp.SetAttr("degraded", true)
	sp.SetAttr("degrade_reason", err.Error())
	mcCtx, mcSpan := trace.Start(ctx, "power.mc.fallback")
	if mcSpan != nil {
		mcSpan.SetAttr("vectors", opt.vectors())
		defer mcSpan.End()
	}
	rep, mcErr := monteCarloEstimate(mcCtx, nw, p, cm, inputProb, opt)
	if mcErr != nil {
		return Report{}, fmt.Errorf("power: exact estimation exceeded budget (%v) and Monte Carlo fallback failed: %w", err, mcErr)
	}
	rep.Degraded = true
	rep.DegradeReason = err.Error()
	return rep, nil
}

// monteCarloEstimate measures zero-delay activity over a reproducible
// biased random vector stream: the packed 64-lane engine for combinational
// networks, scalar cycle simulation for sequential ones.
func monteCarloEstimate(ctx context.Context, nw *logic.Network, p Params, cm CapModel, inputProb Probabilities, opt ExactOptions) (Report, error) {
	vecs := biasedVectors(nw, inputProb, opt.vectors(), opt.seed())
	if len(nw.FFs()) == 0 {
		rep, _, err := EstimateZeroDelayPacked(nw, p, cm, vecs)
		return rep, err
	}
	act, err := sequentialZeroDelayActivity(ctx, nw, vecs)
	if err != nil {
		return Report{}, err
	}
	return measured(nw, p, cm, vecs, func(id logic.NodeID) float64 { return act[id] }), nil
}

// biasedVectors draws n vectors where PI i is 1 with its declared
// probability (0.5 when absent), deterministically from seed.
func biasedVectors(nw *logic.Network, inputProb Probabilities, n int, seed int64) [][]bool {
	pis := nw.PIs()
	probs := make([]float64, len(pis))
	for i, pi := range pis {
		if p, ok := inputProb[pi]; ok {
			probs[i] = p
		} else {
			probs[i] = 0.5
		}
	}
	r := rand.New(rand.NewSource(ShardSeed(seed, 0)))
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

// sequentialZeroDelayActivity steps a sequential network through the
// vector stream under the zero-delay model and returns per-node toggle
// rates. The baseline is the settled reset state, matching the packed
// engine's convention for combinational networks. The context is polled
// every 64 cycles.
func sequentialZeroDelayActivity(ctx context.Context, nw *logic.Network, vectors [][]bool) (map[logic.NodeID]float64, error) {
	st := logic.NewState(nw)
	if err := st.Settle(); err != nil {
		return nil, err
	}
	live := nw.Live()
	prev := make(map[logic.NodeID]bool, len(live))
	for _, id := range live {
		prev[id] = st.Value(id)
	}
	toggles := make(map[logic.NodeID]int64, len(live))
	for c, in := range vectors {
		if c&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if _, err := st.Step(in); err != nil {
			return nil, err
		}
		for _, id := range live {
			v := st.Value(id)
			if v != prev[id] {
				toggles[id]++
				prev[id] = v
			}
		}
	}
	act := make(map[logic.NodeID]float64, len(live))
	if len(vectors) == 0 {
		return act, nil
	}
	for _, id := range live {
		act[id] = float64(toggles[id]) / float64(len(vectors))
	}
	return act, nil
}
