package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{50, 5}, {90, 9}, {95, 10}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 50}, {8, 50},
	} {
		q := tailPercentile(c.n)
		if q != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, q, c.want)
		}
		if q > 50 && beyond(c.n, q) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, q, beyond(c.n, q))
		}
	}
	if got := beyond(240, 95); got != 12 {
		t.Errorf("beyond(240, 95) = %d, want 12", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %g, want 4", got)
	}
	if got := geomean([]float64{0.5, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("geomean(0.5,2) = %g, want 1", got)
	}
	if geomean(nil) != 0 || geomean([]float64{1, 0}) != 0 {
		t.Error("geomean of no or non-positive values should be 0")
	}
}
