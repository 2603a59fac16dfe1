// Quickstart: build a circuit, estimate its power three ways, then run the
// survey's low-power flow and watch the glitch power disappear.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
)

func main() {
	// 1. A benchmark circuit: 5x5 array multiplier — deep, reconvergent,
	// and glitchy, like the datapaths the survey's logic section targets.
	nw, err := circuits.ArrayMultiplier(5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit %s: %s\n\n", nw.Name, nw.Stats())

	// 2. Estimate power (Eqn. 1 of the survey) three ways: one Spec, three
	// activity sources.
	r := rand.New(rand.NewSource(42))
	spec := power.Spec{Params: power.DefaultParams(), Vectors: sim.RandomStimulus(r, 500, len(nw.PIs()), 0.5)}
	var simRep power.Report
	for _, est := range []struct {
		method power.Method
		label  string
	}{
		{power.MethodExact, "exact zero-delay (BDD):   "},
		{power.MethodPropagated, "propagated approximation: "},
		{power.MethodSimulated, "event-driven simulation:  "},
	} {
		spec.Method = est.method
		rep, err := power.Estimate(context.Background(), nw, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(est.label, rep)
		simRep = rep
	}
	fmt.Printf("glitch share of transitions: %.1f%%\n\n", 100*simRep.Totals.SpuriousFraction())

	// 3. Run the low-power flow: don't-care optimization then path
	// balancing, with power measured after every pass.
	ctx := core.NewContext(nw, 42)
	rep, err := core.RunFlow(nw, core.StandardFlows()["lowpower"], ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
}
