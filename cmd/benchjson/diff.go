package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// loadReport reads an archived benchjson report.
func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// benchDelta is the comparison of one benchmark between two reports.
type benchDelta struct {
	Name                 string
	OldNs, NewNs         float64
	NsDelta              float64 // fractional change; +0.25 = 25% slower
	OldAllocs, NewAllocs float64
	AllocsDelta          float64
	NsRegressed          bool
	AllocsRegressed      bool
	// NsComparable / AllocsComparable are false when the baseline value is
	// zero (a broken or pre-benchmem archive): the ratio is undefined, so
	// the delta column prints n/a and the gate never divides by zero or
	// waves a real slowdown through as "+0.0%".
	NsComparable     bool
	AllocsComparable bool
}

// runDiff compares two report files benchmark by benchmark and writes a
// delta table. A benchmark regresses when its ns/op grew by more than
// threshold (fractional), or — when allocThreshold >= 0 — its allocs/op
// did. Benchmarks present in only one report are listed but never fail the
// gate (PRs add and remove benchmarks routinely). Returns the number of
// regressed benchmarks.
func runDiff(oldPath, newPath string, threshold, allocThreshold float64, w io.Writer) (int, error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return 0, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return 0, err
	}
	deltas, onlyOld, onlyNew := diffReports(oldRep, newRep, threshold, allocThreshold)

	fmt.Fprintf(w, "bench diff %s (%s) -> %s (%s), ns/op threshold %+.0f%%\n",
		oldPath, oldRep.Date, newPath, newRep.Date, 100*threshold)
	fmt.Fprintf(w, "%-40s %14s %14s %8s %10s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs")
	regressions := 0
	for _, d := range deltas {
		flag := ""
		if d.NsRegressed || d.AllocsRegressed {
			flag = "  << REGRESSION"
			regressions++
		}
		delta := "    n/a"
		if d.NsComparable {
			delta = fmt.Sprintf("%+6.1f%%", 100*d.NsDelta)
		}
		allocs := "-"
		switch {
		case d.AllocsComparable:
			allocs = fmt.Sprintf("%+.1f%%", 100*d.AllocsDelta)
		case d.NewAllocs > 0:
			allocs = "n/a"
		}
		fmt.Fprintf(w, "%-40s %14.1f %14.1f %8s %10s%s\n",
			d.Name, d.OldNs, d.NewNs, delta, allocs, flag)
	}
	for _, n := range onlyOld {
		fmt.Fprintf(w, "%-40s removed\n", n)
	}
	for _, n := range onlyNew {
		fmt.Fprintf(w, "%-40s added\n", n)
	}
	return regressions, nil
}

// diffReports pairs up benchmarks by name and computes fractional deltas.
func diffReports(oldRep, newRep *Report, threshold, allocThreshold float64) (deltas []benchDelta, onlyOld, onlyNew []string) {
	oldBy := indexByName(oldRep)
	newBy := indexByName(newRep)
	for name, ob := range oldBy {
		nb, ok := newBy[name]
		if !ok {
			onlyOld = append(onlyOld, name)
			continue
		}
		d := benchDelta{
			Name:      name,
			OldNs:     ob.NsPerOp,
			NewNs:     nb.NsPerOp,
			OldAllocs: ob.AllocsPerOp,
			NewAllocs: nb.AllocsPerOp,
		}
		if ob.NsPerOp > 0 {
			d.NsComparable = true
			d.NsDelta = (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
			d.NsRegressed = d.NsDelta > threshold
		}
		if ob.AllocsPerOp > 0 {
			d.AllocsComparable = true
			d.AllocsDelta = (nb.AllocsPerOp - ob.AllocsPerOp) / ob.AllocsPerOp
			if allocThreshold >= 0 {
				d.AllocsRegressed = d.AllocsDelta > allocThreshold
			}
		}
		deltas = append(deltas, d)
	}
	for name := range newBy {
		if _, ok := oldBy[name]; !ok {
			onlyNew = append(onlyNew, name)
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return deltas, onlyOld, onlyNew
}

// indexByName maps each benchmark name to its median ns/op and
// allocs/op. `go test -count N` writes N lines per name; comparing only
// one of them would let a single sample stand for all N.
func indexByName(rep *Report) map[string]Benchmark {
	ns := make(map[string][]float64, len(rep.Benchmarks))
	allocs := make(map[string][]float64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		// ns_per_op was introduced after the first archives; fall back to
		// the metrics map for reports written by older benchjson builds.
		if b.NsPerOp == 0 {
			b.NsPerOp = b.Metrics["ns/op"]
		}
		if b.AllocsPerOp == 0 {
			b.AllocsPerOp = b.Metrics["allocs/op"]
		}
		ns[b.Name] = append(ns[b.Name], b.NsPerOp)
		allocs[b.Name] = append(allocs[b.Name], b.AllocsPerOp)
	}
	out := make(map[string]Benchmark, len(ns))
	for name := range ns {
		out[name] = Benchmark{Name: name, NsPerOp: median(ns[name]), AllocsPerOp: median(allocs[name])}
	}
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
