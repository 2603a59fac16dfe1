// Command lpflow runs a named low-power optimization flow on a circuit —
// either a built-in generator (-circuit mult5) or a BLIF file (-blif
// path) — and prints the power trajectory.
//
//	lpflow -circuit mult5 -flow lowpower
//	lpflow -blif design.blif -flow glitch -seed 7
//	lpflow -circuit mult5 -profile prof/   # + hottest-nodes table
//	go tool pprof -top prof/power.pb.gz
//	lpflow -list
//
// With -profile the final network's power is attributed node by node
// (estimated transition densities vs glitch-inclusive simulation side by
// side) and exported as pprof, folded flamegraph stacks and a Chrome
// trace of the pass pipeline; see internal/obsv/profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/obsv/profile"
	"repro/internal/obsv/trace"
	"repro/internal/power"
	"repro/internal/sim"
)

func main() {
	circuit := flag.String("circuit", "", "built-in circuit generator")
	blif := flag.String("blif", "", "BLIF file to optimize")
	flowName := flag.String("flow", "lowpower", "flow to run")
	seed := flag.Int64("seed", 1, "workload seed")
	list := flag.Bool("list", false, "list circuits, flows and passes")
	out := flag.String("o", "", "write the optimized network as BLIF to this file")
	metrics := flag.Bool("metrics", false, "print per-pass timing and substrate counters after the flow")
	profDir := flag.String("profile", "", "write power-attribution profiles (pprof, folded stacks, pass trace) to this directory")
	topN := flag.Int("top", 0, "print the N hottest nodes after the flow (0 = only with -profile, which defaults to 10)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the lpflow run itself to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the flow; on expiry the partial trajectory is printed and lpflow exits non-zero (0 = no limit)")
	bddBudget := flag.Int("bdd-budget", 0, "max BDD nodes per exact power measurement; over budget the measurement degrades to Monte Carlo, marked (MC) (0 = unlimited)")
	incremental := flag.Bool("incremental", false, "measure with the fast incremental engines (propagated probabilities + packed zero-delay MC), re-deriving only each pass's dirty cone; combinational circuits only (sequential fall back to classic measurement)")
	fullReestimate := flag.Bool("full-reestimate", false, "with -incremental: discard the baseline before every measurement (full-recompute escape hatch; trajectories are bit-identical either way)")
	flag.Parse()
	// Zero means "no limit"; a negative value would silently mean the same.
	if *bddBudget < 0 {
		fatal(fmt.Errorf("-bdd-budget %d is negative (0 = unlimited)", *bddBudget))
	}
	if *timeout < 0 {
		fatal(fmt.Errorf("-timeout %v is negative (0 = no limit)", *timeout))
	}

	stopProfiles, err := cliutil.StartProfiles("lpflow", *cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	var reg *obsv.Registry
	if *metrics {
		reg = obsv.Enable()
	}

	if *list {
		fmt.Println("circuits:", strings.Join(circuits.GeneratorNames(), " "))
		var flows []string
		for n := range core.StandardFlows() {
			flows = append(flows, n)
		}
		sort.Strings(flows)
		fmt.Println("flows:   ", strings.Join(flows, " "))
		fmt.Println("passes:  ", strings.Join(core.PassNames(), " "))
		return
	}

	nw, err := cliutil.LoadNetwork(*circuit, *blif)
	if err != nil {
		fatal(err)
	}
	flow, ok := core.StandardFlows()[*flowName]
	if !ok {
		fatal(fmt.Errorf("unknown flow %q (try -list)", *flowName))
	}
	runCtx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
		// Hard backstop past the graceful deadline for non-ctx-aware
		// paths, disarmed on clean exit.
		stopWatchdog := cliutil.Watchdog("lpflow", cliutil.GraceAfter(*timeout))
		defer stopWatchdog()
	}
	// With -profile the flow runs under a tracer: its pass spans, and the
	// engine spans nested under them, become trace.json.
	var root *trace.Span
	if *profDir != "" {
		runCtx, root = trace.New(runCtx, "flow."+flow.Name)
	}
	ctx := core.NewContext(nw, *seed)
	ctx.ExactBudget = bdd.Budget{MaxNodes: *bddBudget}
	ctx.Incremental = *incremental
	ctx.FullRecompute = *fullReestimate
	rep, err := core.RunFlowCtx(runCtx, nw, flow, ctx)
	root.End()
	if err != nil {
		// On cancellation the flow hands back the trajectory it finished;
		// print it before failing so a timed-out run is still informative.
		if rep != nil && len(rep.Steps) > 0 {
			fmt.Print(rep)
		}
		fatal(err)
	}
	fmt.Print(rep)
	if *profDir != "" || *topN > 0 {
		n := *topN
		if n <= 0 {
			n = 10
		}
		tr := profile.FromTracer(root.Tracer(), "lpflow", "flow:"+flow.Name)
		if err := writeProfiles(nw, ctx, tr, *profDir, n); err != nil {
			fatal(err)
		}
	}
	if *metrics {
		fmt.Printf("metrics:\n%s", indent(reg.FormatText(), "  "))
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := logic.WriteBLIF(f, nw); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// writeProfiles attributes the final network's power per node — estimated
// transition densities and glitch-inclusive simulation side by side — and
// prints the top-n table. With a non-empty dir it also writes power.pb.gz
// (pprof), power.folded / power_est.folded (flamegraph stacks) and
// trace.json (Chrome trace of the flow's span tree). The simulated attribution
// reuses the flow's own vectors and delay model, so module subtotals sum to
// the reported SimP; its glitch shares come from that run's counts.
func writeProfiles(nw *logic.Network, ctx *core.Context, tr *profile.Trace, dir string, topN int) error {
	vecs, err := sim.PackVectors(ctx.Vectors)
	if err != nil {
		return err
	}
	spec := power.Spec{Method: power.MethodSimulated, Params: ctx.Params, CapModel: ctx.CapModel,
		InputProb: ctx.InputProb, Vectors: vecs,
		ExactOptions: power.ExactOptions{Budget: ctx.ExactBudget}}
	simRep, err := power.Estimate(context.Background(), nw, spec)
	if err != nil {
		return err
	}
	spec.Method = power.MethodDensity
	estRep, err := power.Estimate(context.Background(), nw, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lpflow: density estimate unavailable: %v\n", err)
	}
	prof := profile.FromReports(nw.Name, simRep, estRep)
	fmt.Print(prof.FormatTop(topN))

	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	writers := []struct {
		name  string
		write func(*os.File) error
	}{
		{"power.pb.gz", func(f *os.File) error { return prof.WritePprof(f) }},
		{"power.folded", func(f *os.File) error { return prof.WriteFolded(f) }},
		{"power_est.folded", func(f *os.File) error { return prof.WriteFoldedEst(f) }},
		{"trace.json", func(f *os.File) error { return tr.WriteJSON(f) }},
	}
	for _, w := range writers {
		f, err := os.Create(filepath.Join(dir, w.name))
		if err != nil {
			return err
		}
		if err := w.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("profiles written to %s (try: go tool pprof -top %s)\n",
		dir, filepath.Join(dir, "power.pb.gz"))
	return nil
}

// indent prefixes every non-empty line of s with prefix.
func indent(s, prefix string) string {
	lines := strings.SplitAfter(s, "\n")
	var b strings.Builder
	for _, l := range lines {
		if l != "" {
			b.WriteString(prefix)
			b.WriteString(l)
		}
	}
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lpflow:", err)
	os.Exit(1)
}
