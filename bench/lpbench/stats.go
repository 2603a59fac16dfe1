package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// xs: the smallest sample with at least q% of the samples at or below it.
// The input is not modified; an empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond is the number of samples strictly above the nearest-rank q-th
// percentile of n samples.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailPercentile is the highest of the candidate percentiles that leaves
// at least ten of n samples beyond it, or 50 when none does. Workloads fix
// their tail from their nominal sample count, so the reported percentile
// never flips between runs whose counts differ slightly.
func tailPercentile(n int) float64 {
	for _, q := range []float64{99, 95, 90} {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 50
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean is the geometric mean of positive values; 0 when xs is empty or
// holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
