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
	"repro/internal/sim"
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
	st := biasedStimulus(nw, inputProb, opt.vectors(), opt.seed())
	if len(nw.FFs()) == 0 {
		rep, _, err := estimatePacked(nw, p, cm, st)
		return rep, err
	}
	s, err := sim.NewStream(nw)
	if err != nil {
		return Report{}, err
	}
	// Count from the settled reset state.
	if err := s.Run(ctx, st, nil); err != nil {
		return Report{}, err
	}
	return measured(nw, p, cm, st, s.Activity), nil
}

// biasedStimulus draws n vectors where PI i is 1 with its declared
// probability (0.5 when absent), deterministically from seed.
func biasedStimulus(nw *logic.Network, inputProb Probabilities, n int, seed int64) sim.Stimulus {
	pis := nw.PIs()
	probs := make([]float64, len(pis))
	for i, pi := range pis {
		if p, ok := inputProb[pi]; ok {
			probs[i] = p
		} else {
			probs[i] = 0.5
		}
	}
	return sim.BiasedStimulus(rand.New(rand.NewSource(ShardSeed(seed, 0))), n, probs)
}

// ShardSeed derives the PRNG seed of stream i from a caller seed with a
// splitmix64 step, so streams are decorrelated but fully determined by
// (seed, i). The Monte Carlo fallback draws its one vector stream from
// ShardSeed(seed, 0), so its vectors are not the caller's rand stream;
// it is exported so tools that redraw that stream (bench/lpbench) can
// reproduce a report.
func ShardSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
