// FSM low power: state encoding (§III.C.1) plus gated clocks (§III.C.3)
// on the benchmark controllers. Shows the weighted-switching-activity
// objective, synthesizes each encoding to gates, and gates the idle-heavy
// machine's clock on its self-loops.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/encode"
	"repro/internal/gating"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/stg"
)

func main() {
	corpus := stg.Corpus()
	params := power.DefaultParams()

	fmt.Println("State encoding on the mod-8 counter:")
	g := corpus["count8"]
	r := rand.New(rand.NewSource(9))
	encoders := []struct {
		name string
		e    encode.Encoding
	}{
		{"binary", encode.MinimalBinary(g)},
		{"gray", encode.Gray(g)},
		{"one-hot", encode.OneHot(g)},
		{"annealed", encode.Anneal(g, r, encode.AnnealOptions{Iterations: 10000})},
	}
	for _, enc := range encoders {
		nw, err := encode.Synthesize(g, enc.e)
		if err != nil {
			log.Fatal(err)
		}
		probs, err := power.SequentialProbabilities(nw, rand.New(rand.NewSource(2)), 2000, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := power.Estimate(context.Background(), nw, power.Spec{Method: power.MethodExact, Params: params, InputProb: probs})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s bits=%d  expected FF toggles/cycle=%.3f  gates=%-3d  networkP=%.2f\n",
			enc.name, enc.e.Bits, encode.WeightedActivity(g, enc.e), nw.NumGates(), rep.Total())
	}

	fmt.Println("\nGated clock on the idle-heavy controller (self-loop gating [4]):")
	idler := corpus["idler"]
	e := encode.MinimalBinary(idler)
	base, err := encode.Synthesize(idler, e)
	if err != nil {
		log.Fatal(err)
	}
	gated, err := gating.GateSelfLoops(idler, e)
	if err != nil {
		log.Fatal(err)
	}
	for _, clockCap := range []float64{1, 4, 8} {
		rb, err := gating.MeasureClockPower(base, logic.InvalidNode, nil,
			rand.New(rand.NewSource(5)), 4000, params, clockCap, nil)
		if err != nil {
			log.Fatal(err)
		}
		rg, err := gating.MeasureClockPower(gated.Network, gated.Enable, gated.HoldMuxes,
			rand.New(rand.NewSource(5)), 4000, params, clockCap, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  clockCap=%.0f: ungated P=%.2f  gated P=%.2f (clock ticks %.0f%% of cycles)\n",
			clockCap, rb.Total(), rg.Total(), 100*rg.EnableFraction)
	}

	fmt.Println("\nRegister bank loaded 10% of cycles (the survey's register-file case [9]):")
	bank, err := gating.BuildRegisterBank(16)
	if err != nil {
		log.Fatal(err)
	}
	prob := make([]float64, len(bank.Network.PIs()))
	for i := range prob {
		prob[i] = 0.5
	}
	prob[0] = 0.1
	ru, err := gating.MeasureClockPower(bank.Network, logic.InvalidNode, nil,
		rand.New(rand.NewSource(8)), 4000, params, 2.0, prob)
	if err != nil {
		log.Fatal(err)
	}
	rg, err := gating.MeasureClockPower(bank.Network, bank.Load, bank.HoldMuxes,
		rand.New(rand.NewSource(8)), 4000, params, 2.0, prob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  load-enable muxing: P=%.2f   clock gating: P=%.2f   (%.1f%% saved)\n",
		ru.Total(), rg.Total(), 100*(1-rg.Total()/ru.Total()))
}
