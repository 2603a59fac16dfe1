// Command fsmenc explores low-power state encodings for an FSM: it reads
// a KISS2 file (or uses a built-in corpus machine), evaluates every
// encoder by expected flip-flop switching and synthesized network power,
// and optionally writes the best implementation as BLIF.
//
//	fsmenc -fsm count8
//	fsmenc -kiss machine.kiss -o best.blif
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/cliutil"
	"repro/internal/encode"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/stg"
)

func main() {
	kiss := flag.String("kiss", "", "KISS2 file")
	name := flag.String("fsm", "", "built-in corpus machine (count8, traffic, arbiter, det1101, idler)")
	seed := flag.Int64("seed", 1, "annealing seed")
	out := flag.String("o", "", "write the lowest-power implementation as BLIF")
	timeout := flag.Duration("timeout", 0, "hard wall-clock limit; on expiry fsmenc prints a timeout error and exits with status 124 (0 = no limit)")
	flag.Parse()

	// The encoding search is not context-aware, so the timeout here is a
	// watchdog rather than a graceful deadline; disarm it once the run
	// completes so a finish just under the wire cannot race the timer.
	stopWatchdog := cliutil.Watchdog("fsmenc", *timeout)
	defer stopWatchdog()

	g, err := load(*kiss, *name)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("machine %s: %d states, %d inputs, %d outputs, %d edges\n",
		g.Name, len(g.States), g.NumInputs, g.NumOut, len(g.Edges))
	sl := g.SelfLoopFraction()
	var names []string
	for s := range sl {
		names = append(names, s)
	}
	sort.Strings(names)
	for _, s := range names {
		fmt.Printf("  state %-10s self-loop probability %.2f\n", s, sl[s])
	}

	r := rand.New(rand.NewSource(*seed))
	encoders := []struct {
		label string
		e     encode.Encoding
	}{
		{"binary", encode.MinimalBinary(g)},
		{"gray", encode.Gray(g)},
		{"one-hot", encode.OneHot(g)},
		{"greedy", encode.Greedy(g)},
		{"anneal", encode.Anneal(g, r, encode.AnnealOptions{Iterations: 20000})},
	}
	params := power.DefaultParams()
	fmt.Printf("\n%-8s %-5s %-18s %-6s %-12s\n", "encoder", "bits", "FF toggles/cycle", "gates", "network P")
	bestP := 0.0
	var best *logic.Network
	bestLabel := ""
	for _, enc := range encoders {
		nw, err := encode.Synthesize(g, enc.e)
		if err != nil {
			fatal(err)
		}
		probs, err := power.SequentialProbabilities(nw, rand.New(rand.NewSource(2)), 3000, 0.5)
		if err != nil {
			fatal(err)
		}
		rep, err := power.Estimate(context.Background(), nw, power.Spec{Method: power.MethodExact, Params: params, InputProb: probs})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-8s %-5d %-18.3f %-6d %-12.2f\n",
			enc.label, enc.e.Bits, encode.WeightedActivity(g, enc.e), nw.NumGates(), rep.Total())
		if best == nil || rep.Total() < bestP {
			best, bestP, bestLabel = nw, rep.Total(), enc.label
		}
	}
	fmt.Printf("\nlowest network power: %s (%.2f)\n", bestLabel, bestP)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := logic.WriteBLIF(f, best); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func load(kiss, name string) (*stg.STG, error) {
	switch {
	case kiss != "" && name != "":
		return nil, fmt.Errorf("specify -kiss or -fsm, not both")
	case kiss != "":
		f, err := os.Open(kiss)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return stg.ReadKISS(f)
	case name != "":
		g, ok := stg.Corpus()[name]
		if !ok {
			return nil, fmt.Errorf("unknown corpus machine %q", name)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("specify -kiss FILE or -fsm NAME")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsmenc:", err)
	os.Exit(1)
}
