// Command benchjson converts `go test -bench` text output into a
// machine-readable benchmark report, seeding the repo's performance
// trajectory (BENCH_<date>.json files that successive PRs can diff):
//
//	go test -bench=. -benchmem | go run ./cmd/benchjson
//	go test -bench=. | go run ./cmd/benchjson -o - | jq .benchmarks
//
// Every metric pair of each benchmark line is kept — ns/op, B/op,
// allocs/op and the custom per-table headline metrics reported by
// bench_test.go (switch_share_pct, anneal_over_greedy, ...). The benchmem
// metrics are additionally lifted into first-class ns_per_op /
// bytes_per_op / allocs_per_op / mb_per_s fields so downstream tooling
// does not need to know the go-test unit strings.
//
// -diff compares two archived reports and gates on regressions — the CI
// bench gate:
//
//	benchjson -diff -threshold 0.15 old.json new.json
//
// exits non-zero when any benchmark's median ns/op over its repeated
// samples (go test -count N) grew by more than the threshold fraction
// (and, with -alloc-threshold, when its median allocs/op did).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one benchmark result line: a named operation with its
// metric pairs.
type Benchmark struct {
	// Name is the benchmark name without the "Benchmark" prefix and
	// without the -GOMAXPROCS suffix; FullName keeps both.
	Name       string `json:"name"`
	FullName   string `json:"full_name"`
	Iterations int64  `json:"iterations"`

	// The standard go-test metrics, lifted out of Metrics (0 when the
	// bench run did not report them; B/op and allocs/op need -benchmem).
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`

	Metrics map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document of one BENCH_*.json entry.
type Report struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "-", "bench output to read (- = stdin)")
	out := flag.String("o", "", "output path (- = stdout; default BENCH_<date>.json)")
	date := flag.String("date", "", "date stamp (default today, YYYY-MM-DD)")
	diff := flag.Bool("diff", false, "regression mode: compare two report files (old.json new.json) instead of converting")
	threshold := flag.Float64("threshold", 0.10, "with -diff: fail when ns/op grows by more than this fraction")
	allocThreshold := flag.Float64("alloc-threshold", -1, "with -diff: fail when allocs/op grows by more than this fraction (<0 = don't gate allocs)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-diff needs exactly two report files, got %d args", flag.NArg()))
		}
		regressions, err := runDiff(flag.Arg(0), flag.Arg(1), *threshold, *allocThreshold, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark regression(s) beyond threshold\n", regressions)
			os.Exit(1)
		}
		return
	}

	if *date == "" {
		*date = time.Now().Format("2006-01-02")
	}
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", *date)
	}

	r := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}

	rep, err := parse(r)
	if err != nil {
		fatal(err)
	}
	rep.Date = *date
	rep.GoVersion = runtime.Version()

	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}
}

// parse scans go-test bench output: "goos:/goarch:/pkg:/cpu:" preamble
// lines and "BenchmarkX-N  iters  v1 unit1  v2 unit2 ..." result lines;
// everything else (PASS, ok, test logs) is ignored.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // grows as lines need it, up to 1 MiB
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return rep, sc.Err()
}

func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	full := fields[0]
	name := strings.TrimPrefix(full, "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Benchmark{Name: name, FullName: full, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		b.Metrics[fields[i+1]] = v
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "MB/s":
			b.MBPerS = v
		}
	}
	return b, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
