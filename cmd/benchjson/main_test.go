package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name, json string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(json), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseReport = `{
  "date": "2026-08-01",
  "benchmarks": [
    {"name": "E5/radd8", "full_name": "BenchmarkE5/radd8-8", "iterations": 100,
     "ns_per_op": 1000, "allocs_per_op": 12, "metrics": {"ns/op": 1000, "allocs/op": 12}},
    {"name": "SimMult4", "full_name": "BenchmarkSimMult4-8", "iterations": 50,
     "ns_per_op": 5000, "allocs_per_op": 3, "metrics": {"ns/op": 5000, "allocs/op": 3}}
  ]
}`

// The CI gate's core contract: an injected regression beyond the threshold
// must yield a non-zero regression count (-> non-zero exit in main).
func TestRunDiffFlagsInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport)
	// E5/radd8 slowed 1000 -> 1300 ns/op: +30%, beyond the 10% threshold.
	injected := strings.Replace(baseReport, `"ns_per_op": 1000, "allocs_per_op": 12, "metrics": {"ns/op": 1000`,
		`"ns_per_op": 1300, "allocs_per_op": 12, "metrics": {"ns/op": 1300`, 1)
	neu := writeReport(t, dir, "new.json", injected)

	var out strings.Builder
	regressions, err := runDiff(old, neu, 0.10, -1, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("diff output missing REGRESSION marker:\n%s", out.String())
	}
}

func TestRunDiffCleanWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport)
	// +5% drift stays under the 10% threshold.
	drift := strings.Replace(baseReport, `"ns_per_op": 1000`, `"ns_per_op": 1050`, 1)
	drift = strings.Replace(drift, `"ns/op": 1000`, `"ns/op": 1050`, 1)
	neu := writeReport(t, dir, "new.json", drift)

	var out strings.Builder
	regressions, err := runDiff(old, neu, 0.10, -1, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", regressions, out.String())
	}
}

// Allocation gating is opt-in: allocThreshold < 0 ignores alloc growth,
// >= 0 fails on it.
func TestRunDiffAllocThreshold(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport)
	grown := strings.Replace(baseReport, `"allocs_per_op": 12, "metrics": {"ns/op": 1000, "allocs/op": 12}`,
		`"allocs_per_op": 24, "metrics": {"ns/op": 1000, "allocs/op": 24}`, 1)
	neu := writeReport(t, dir, "new.json", grown)

	var out strings.Builder
	if n, err := runDiff(old, neu, 0.10, -1, &out); err != nil || n != 0 {
		t.Fatalf("alloc gate disabled: regressions = %d, err = %v", n, err)
	}
	out.Reset()
	if n, err := runDiff(old, neu, 0.10, 0.50, &out); err != nil || n != 1 {
		t.Fatalf("alloc gate at 50%%: regressions = %d, err = %v\n%s", n, err, out.String())
	}
}

// Added/removed benchmarks are reported but never fail the gate.
func TestRunDiffAddedRemovedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseReport)
	neu := writeReport(t, dir, "new.json", `{
  "date": "2026-08-02",
  "benchmarks": [
    {"name": "E5/radd8", "full_name": "BenchmarkE5/radd8-8", "iterations": 100,
     "ns_per_op": 1000, "metrics": {"ns/op": 1000}},
    {"name": "Brand/New", "full_name": "BenchmarkBrand/New-8", "iterations": 10,
     "ns_per_op": 42, "metrics": {"ns/op": 42}}
  ]
}`)
	var out strings.Builder
	regressions, err := runDiff(old, neu, 0.10, -1, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("regressions = %d, want 0\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "SimMult4") || !strings.Contains(out.String(), "removed") {
		t.Errorf("removed benchmark not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Brand/New") || !strings.Contains(out.String(), "added") {
		t.Errorf("added benchmark not reported:\n%s", out.String())
	}
}

// Reports written before the first-class fields existed carry ns/op only in
// the metrics map; the diff must still see them.
func TestRunDiffLegacyMetricsFallback(t *testing.T) {
	dir := t.TempDir()
	legacy := `{
  "date": "2026-07-01",
  "benchmarks": [
    {"name": "E1/sim", "full_name": "BenchmarkE1/sim-8", "iterations": 20,
     "metrics": {"ns/op": 2000}}
  ]
}`
	old := writeReport(t, dir, "old.json", legacy)
	neu := writeReport(t, dir, "new.json", strings.Replace(legacy, "2000", "4000", 1))
	var out strings.Builder
	regressions, err := runDiff(old, neu, 0.10, -1, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 1 {
		t.Fatalf("legacy fallback: regressions = %d, want 1\n%s", regressions, out.String())
	}
}

func TestParseBenchLineLiftsStandardMetrics(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkSimMult4-8   12345   4567 ns/op   890 B/op   12 allocs/op   33.5 MB/s")
	if !ok {
		t.Fatal("parseBenchLine rejected a valid line")
	}
	if b.Name != "SimMult4" || b.Iterations != 12345 {
		t.Errorf("name/iters = %q/%d", b.Name, b.Iterations)
	}
	if b.NsPerOp != 4567 || b.BytesPerOp != 890 || b.AllocsPerOp != 12 || b.MBPerS != 33.5 {
		t.Errorf("lifted fields = %v %v %v %v", b.NsPerOp, b.BytesPerOp, b.AllocsPerOp, b.MBPerS)
	}
	if b.Metrics["ns/op"] != 4567 {
		t.Errorf("metrics map missing ns/op: %v", b.Metrics)
	}
}

// A zero baseline ns/op (a broken or hand-edited archive entry) must not
// divide by zero, must not report a bogus "+0.0%", and must not count as a
// regression — the pair is incomparable and prints n/a.
func TestRunDiffZeroBaselineNsPerOp(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", `{
  "date": "2026-08-01",
  "benchmarks": [
    {"name": "Zeroed", "full_name": "BenchmarkZeroed-8", "iterations": 1, "metrics": {}}
  ]
}`)
	neu := writeReport(t, dir, "new.json", `{
  "date": "2026-08-02",
  "benchmarks": [
    {"name": "Zeroed", "full_name": "BenchmarkZeroed-8", "iterations": 1,
     "ns_per_op": 4000, "allocs_per_op": 9, "metrics": {"ns/op": 4000, "allocs/op": 9}}
  ]
}`)
	var out strings.Builder
	regressions, err := runDiff(old, neu, 0.10, 0.10, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("incomparable baseline flagged %d regressions:\n%s", regressions, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "n/a") {
		t.Errorf("zero baseline should print n/a deltas:\n%s", text)
	}
	for _, bad := range []string{"+0.0%", "NaN", "Inf"} {
		if strings.Contains(text, bad) {
			t.Errorf("zero-baseline delta rendered as %q:\n%s", bad, text)
		}
	}
}

// diffReports classifies incomparable pairs without inventing deltas.
func TestDiffReportsZeroBaselineComparability(t *testing.T) {
	oldRep := &Report{Benchmarks: []Benchmark{{Name: "B", NsPerOp: 0, AllocsPerOp: 0}}}
	newRep := &Report{Benchmarks: []Benchmark{{Name: "B", NsPerOp: 100, AllocsPerOp: 5}}}
	deltas, onlyOld, onlyNew := diffReports(oldRep, newRep, 0.10, 0.10)
	if len(onlyOld) != 0 || len(onlyNew) != 0 {
		t.Fatalf("shared benchmark misclassified: onlyOld=%v onlyNew=%v", onlyOld, onlyNew)
	}
	if len(deltas) != 1 {
		t.Fatalf("deltas = %d, want 1", len(deltas))
	}
	d := deltas[0]
	if d.NsComparable || d.AllocsComparable {
		t.Errorf("zero baselines marked comparable: %+v", d)
	}
	if d.NsRegressed || d.AllocsRegressed {
		t.Errorf("zero baselines flagged as regression: %+v", d)
	}
}

// Benchmarks present in only one report must be listed, never silently
// dropped — and never fail the gate on their own.
func TestRunDiffReportsOneSidedBenchmarks(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", `{
  "date": "2026-08-01",
  "benchmarks": [
    {"name": "Kept", "full_name": "BenchmarkKept-8", "iterations": 1,
     "ns_per_op": 100, "metrics": {"ns/op": 100}},
    {"name": "Dropped", "full_name": "BenchmarkDropped-8", "iterations": 1,
     "ns_per_op": 200, "metrics": {"ns/op": 200}}
  ]
}`)
	neu := writeReport(t, dir, "new.json", `{
  "date": "2026-08-02",
  "benchmarks": [
    {"name": "Kept", "full_name": "BenchmarkKept-8", "iterations": 1,
     "ns_per_op": 100, "metrics": {"ns/op": 100}},
    {"name": "Fresh", "full_name": "BenchmarkFresh-8", "iterations": 1,
     "ns_per_op": 300, "metrics": {"ns/op": 300}}
  ]
}`)
	var out strings.Builder
	regressions, err := runDiff(old, neu, 0.10, -1, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		t.Fatalf("one-sided benchmarks flagged %d regressions:\n%s", regressions, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "Dropped") || !strings.Contains(text, "removed") {
		t.Errorf("old-only benchmark not reported as removed:\n%s", text)
	}
	if !strings.Contains(text, "Fresh") || !strings.Contains(text, "added") {
		t.Errorf("new-only benchmark not reported as added:\n%s", text)
	}
}

// `go test -count N` writes N lines per benchmark. The diff compares the
// median ns/op and allocs/op of the repeats, so two slow samples out of
// three are not hidden behind a fast last one.
func TestRunDiffComparesMedianOfRepeats(t *testing.T) {
	report := func(ns, allocs [3]int) string {
		var items []string
		for i := range ns {
			items = append(items,
				fmt.Sprintf(`{"name": "Slow", "ns_per_op": %d}`, ns[i]),
				fmt.Sprintf(`{"name": "Allocs", "ns_per_op": 100, "allocs_per_op": %d}`, allocs[i]))
		}
		return `{"date": "2026-08-01", "benchmarks": [` + strings.Join(items, ",") + `]}`
	}
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", report([3]int{100, 100, 100}, [3]int{10, 10, 10}))
	neu := writeReport(t, dir, "new.json", report([3]int{500, 500, 100}, [3]int{30, 30, 10}))
	var out strings.Builder
	regressions, err := runDiff(old, neu, 1.0, 1.0, &out)
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 2 {
		t.Fatalf("regressions = %d, want 2 (median ns/op 100 -> 500, median allocs/op 10 -> 30)\n%s", regressions, out.String())
	}
	if !strings.Contains(out.String(), "+400.0%") || !strings.Contains(out.String(), "+200.0%") {
		t.Errorf("diff output does not show the median deltas:\n%s", out.String())
	}
}
