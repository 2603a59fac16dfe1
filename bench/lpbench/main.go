// Command lpbench is the repository benchmark: four closed-loop workloads
// against an in-process lpserverd handler (estimate-cold, estimate-hot,
// flow) and the experiment suite (reproduce). Every input comes from the
// seed; every output is checked.
//
//	bash bench/run.sh -seed 1 -o .bench_build/result.json   # all four, each in its own process
//	bash bench/run.sh -workload flow -seed 3 -seconds 15 -trace 1
//
// With -workload it runs that workload alone and prints, as its last line,
// one JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics, or with -trace 1 the per-layer metrics of a traced replay.
// Without -workload it runs each workload in a child process, prints every
// metric by name and unit, and writes them all to -o. The exit status is
// nonzero if anything failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() {
	name := flag.String("workload", "", "estimate-cold, estimate-hot, flow or reproduce; empty runs all four, each in its own process")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "run length per workload: as many whole rounds as take about this many seconds on the reference host")
	traceRun := flag.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "Chrome trace of the replay (default .bench_build/lpbench-<workload>.trace.json)")
	out := flag.String("o", "", "write every workload's result to this JSON file")
	quick := flag.Bool("quick", false, "smoke-test scale: tiny rounds and one set-up (with -seconds 0, one round)")
	flag.Parse()

	if *name == "" {
		if err := runAll(*seed, *seconds, *traceRun, *quick, *out); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
			os.Exit(1)
		}
		return
	}
	path := *traceOut
	if path == "" {
		path = filepath.Join(".bench_build", "lpbench-"+*name+".trace.json")
	}
	res, err := runWorkload(*name, *seed, time.Duration(*seconds)*time.Second, *traceRun == 1, *quick, path, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process.
func runWorkload(name string, seed int64, seconds time.Duration, trace, quick bool, tracePath string, log io.Writer) (result, error) {
	b, err := newRunner(name, seed, seconds, quick, log)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	if trace {
		return b.traced(tracePath)
	}
	return b.endToEnd()
}

// runAll runs every workload in its own child process, so peak RSS and
// caches stay separate, and prints each metric with its unit.
func runAll(seed int64, seconds, trace int, quick bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := map[string]result{}
	failed := false
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		res, err := lastLine(stdout.Bytes())
		if err != nil {
			return fmt.Errorf("%s: %v (exit: %v)", name, err, runErr)
		}
		all[name] = res
		failed = failed || runErr != nil || !res.Correct
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("%s: correct=%t attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		for _, n := range names {
			fmt.Printf("  %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(map[string]any{"seed": seed, "seconds": seconds, "trace": trace, "workloads": all}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("a workload failed")
	}
	return nil
}

// lastLine parses the result object a workload run prints last.
func lastLine(stdout []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
