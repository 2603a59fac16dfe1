// Command experiments regenerates every experiment table E1–E18 plus the
// E4b estimator ablation — the reproduction of the survey's quantitative
// claims. Run with -only E5 to regenerate a single table, -json for a
// machine-readable {tables, metrics, go_version} report, and
// -metrics to collect (and, in text mode, print) the instrumentation
// counters of the substrates that produced the tables. -profile writes a
// Chrome trace (one span per experiment, with row counts) plus a metrics
// snapshot to a directory; -cpuprofile/-memprofile profile the toolkit's
// own hot paths with runtime/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/obsv"
	"repro/internal/obsv/profile"
	"repro/internal/obsv/trace"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E5,E13); empty = all")
	parallel := flag.Int("parallel", 0, "experiment tables generated concurrently (0 = GOMAXPROCS, 1 = sequential); output is identical for any value")
	jsonOut := flag.Bool("json", false, "emit a JSON report {tables, metrics, go_version} instead of text tables")
	metrics := flag.Bool("metrics", false, "enable the obsv registry; text mode appends a metrics dump (-json always includes one)")
	outPath := flag.String("o", "", "write the report to this file instead of stdout")
	profDir := flag.String("profile", "", "write a Chrome trace of the run (one span per experiment) and a metrics snapshot to this directory")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget; experiments not yet started when it expires are skipped and reported as failures (0 = no limit)")
	perTimeout := flag.Duration("per-timeout", 0, "per-experiment budget; a table that takes longer is reported as failed (0 = no limit)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	stopProfiles, err := cliutil.StartProfiles("experiments", *cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	var reg *obsv.Registry
	if *jsonOut || *metrics || *profDir != "" {
		reg = obsv.Enable()
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}

	matched := map[string]bool{}
	var selected []experiments.Experiment
	for _, ex := range experiments.All() {
		id := strings.ToUpper(ex.ID)
		if len(want) > 0 && !want[id] {
			continue
		}
		matched[id] = true
		selected = append(selected, ex)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		// Hard backstop for experiments that outlive the graceful skip
		// boundary (a running table is not individually cancellable),
		// disarmed on clean exit.
		stopWatchdog := cliutil.Watchdog("experiments", cliutil.GraceAfter(*timeout))
		defer stopWatchdog()
	}
	// With -profile the run is traced: RunAllCtx records one
	// experiment.<ID> span per table under this root.
	var root *trace.Span
	if *profDir != "" {
		ctx, root = trace.New(ctx, "experiments")
	}

	// Independent tables run concurrently on a bounded pool; results come
	// back in E-number order, so the emitted report is deterministic for
	// any -parallel value.
	var tables []*experiments.Table
	var failures []experiments.Failure
	failed := 0
	results := experiments.RunAllCtx(ctx, selected, *parallel, *perTimeout)
	root.End()
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", res.ID, res.Err)
			failures = append(failures, experiments.Failure{ID: res.ID, Error: res.Err.Error(), Skipped: res.Skipped})
			failed++
			// A timed-out table was still produced; keep it in the report so a
			// partial run stays useful. Panics and skips have no table.
			if res.Table == nil {
				continue
			}
		}
		tables = append(tables, res.Table)
	}

	// A requested ID that matched nothing is an error, not silence.
	var unknown []string
	for id := range want {
		if !matched[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment ID(s): %s\n", strings.Join(unknown, ", "))
		failed++
	}

	if *jsonOut {
		rep := experiments.NewReport()
		rep.Tables = tables
		rep.Failures = failures
		rep.Metrics = reg.Export()
		if err := rep.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			failed++
		}
	} else {
		for _, tbl := range tables {
			fmt.Fprintln(out, tbl.Format())
		}
		if *metrics {
			// FormatText sorts metric names, so the dump is deterministic
			// across runs and diffable between reports.
			fmt.Fprintf(out, "== metrics ==\n%s", reg.FormatText())
		}
	}
	if *profDir != "" {
		if err := writeRunProfile(*profDir, profile.FromTracer(root.Tracer(), "experiments", "tables"), reg); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// writeRunProfile dumps the run's trace (Chrome trace_event JSON, loadable
// in Perfetto) and a sorted text metrics snapshot.
func writeRunProfile(dir string, trace *profile.Trace, reg *obsv.Registry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := trace.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.txt"), []byte(reg.FormatText()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote %s and %s\n",
		filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.txt"))
	return nil
}

// writeMemProfile dumps a heap profile (after a GC) when path is non-empty.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
