// Command powerest estimates the power of a circuit three ways — exact
// probabilistic (BDD), approximate propagation, and event-driven
// simulation with glitches — and prints the Eqn. 1 breakdown plus the top
// power consumers.
//
//	powerest -blif design.blif
//	powerest -circuit mult5 -vectors 2000 -p1 0.3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/bdd"
	"repro/internal/cliutil"
	"repro/internal/power"
	"repro/internal/sim"
)

func main() {
	circuit := flag.String("circuit", "", "built-in circuit generator (e.g. radd8, mult5, cmp8, alu4, par16)")
	blif := flag.String("blif", "", "BLIF file to analyze")
	vectors := flag.Int("vectors", 1000, "simulation vectors")
	p1 := flag.Float64("p1", 0.5, "input one-probability")
	seed := flag.Int64("seed", 1, "workload seed")
	top := flag.Int("top", 5, "top consumers to list")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the whole estimation (0 = no limit)")
	bddBudget := flag.Int("bdd-budget", 0, "max BDD nodes for the exact estimate; over budget it degrades to Monte Carlo (0 = unlimited)")
	flag.Parse()
	switch {
	case !(*p1 >= 0 && *p1 <= 1):
		fatal(fmt.Errorf("-p1 %g outside [0,1]", *p1))
	case *vectors < 1:
		fatal(fmt.Errorf("-vectors %d: need at least 1", *vectors))
	case *top < 0:
		fatal(fmt.Errorf("-top %d is negative", *top))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		// Hard backstop past the graceful deadline, disarmed on clean exit.
		stopWatchdog := cliutil.Watchdog("powerest", cliutil.GraceAfter(*timeout))
		defer stopWatchdog()
	}

	nw, err := cliutil.LoadNetwork(*circuit, *blif)
	if err != nil {
		fatal(err)
	}
	st := nw.Stats()
	fmt.Printf("%s: %s\n", nw.Name, st)
	inProb := power.Probabilities{}
	for _, pi := range nw.PIs() {
		inProb[pi] = *p1
	}
	if len(nw.FFs()) > 0 {
		seq, err := power.SequentialProbabilities(nw, rand.New(rand.NewSource(*seed)), 2000, *p1)
		if err != nil {
			fatal(err)
		}
		inProb = seq
	}

	r := rand.New(rand.NewSource(*seed))
	spec := power.Spec{Params: power.DefaultParams(), InputProb: inProb,
		Vectors:      sim.RandomStimulus(r, *vectors, len(nw.PIs()), *p1),
		ExactOptions: power.ExactOptions{Budget: bdd.Budget{MaxNodes: *bddBudget}, MCVectors: *vectors, MCSeed: *seed}}
	var simRep power.Report
	for _, est := range []struct {
		method power.Method
		label  string
	}{
		{power.MethodExact, "exact (BDD):       "},
		{power.MethodPropagated, "propagated:        "},
		{power.MethodDensity, "transition density:"},
		{power.MethodSimulated, "simulated (timed): "},
	} {
		spec.Method = est.method
		rep, err := power.Estimate(ctx, nw, spec)
		if est.method == power.MethodDensity && errors.Is(err, bdd.ErrBudgetExceeded) {
			// The density method has no Monte Carlo fallback.
			fmt.Printf("%s unavailable: %v\n", est.label, err)
			continue
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s %s\n", est.label, rep)
		simRep = rep
	}
	tot := simRep.Totals
	fmt.Printf("glitches: %.1f%% of %d transitions over %d cycles\n",
		100*tot.SpuriousFraction(), tot.Transitions, tot.Cycles)

	fmt.Printf("top %d consumers (simulated):\n", *top)
	for _, np := range simRep.TopConsumers(*top) {
		fmt.Printf("  %-16s cap=%5.1f activity=%6.3f P=%8.3f\n", np.Name, np.Cap, np.Activity, np.Total())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "powerest:", err)
	os.Exit(1)
}
