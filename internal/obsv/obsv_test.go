package obsv

import (
	"strings"
	"sync"
	"testing"
)

// A nil registry and every handle it yields must be usable no-ops — the
// disabled fast path instrumented code relies on.
func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d, want 0", c.Value())
	}
	g := r.Gauge("y")
	g.Set(3)
	g.Max(9)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %g, want 0", g.Value())
	}
	h := r.Histogram("w")
	h.Observe(7)
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Buckets() != nil {
		t.Error("nil histogram recorded something")
	}
	if len(r.Export()) != 0 {
		t.Error("nil registry exported metrics")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim.events")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if again := r.Counter("sim.events"); again != c {
		t.Error("same name should return the same counter")
	}
}

func TestGaugeMax(t *testing.T) {
	g := NewRegistry().Gauge("q")
	g.Max(3)
	g.Max(1)
	if g.Value() != 3 {
		t.Errorf("gauge = %g, want 3", g.Value())
	}
	g.Set(-2)
	if g.Value() != -2 {
		t.Errorf("gauge = %g, want -2", g.Value())
	}
	g.Max(0)
	if g.Value() != 0 {
		t.Errorf("gauge = %g, want 0", g.Value())
	}
}

// TestGaugeAddConcurrent: balanced concurrent Adds leave the gauge
// where it started, and Add on a nil gauge is a no-op.
func TestGaugeAddConcurrent(t *testing.T) {
	g := NewRegistry().Gauge("inflight")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	g.Add(2.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %g, want 2.5", g.Value())
	}
	var nilGauge *Gauge
	nilGauge.Add(1)
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("settle")
	for _, v := range []int64{0, 1, 2, 3, 4, 9, 100} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if h.Max() != 100 {
		t.Errorf("max = %d, want 100", h.Max())
	}
	want := map[int64]int64{0: 1, 1: 1, 2: 2, 4: 1, 8: 1, 64: 1}
	got := h.Buckets()
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for lo, n := range want {
		if got[lo] != n {
			t.Errorf("bucket %d = %d, want %d", lo, got[lo], n)
		}
	}
}

func TestExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(4)
	r.Gauge("b.gauge").Set(2.5)
	r.Histogram("d.hist").Observe(6)
	exp := r.Export()
	if exp["a.count"] != int64(4) {
		t.Errorf("a.count = %v", exp["a.count"])
	}
	if exp["b.gauge"] != 2.5 {
		t.Errorf("b.gauge = %v", exp["b.gauge"])
	}
	hs, ok := exp["d.hist"].(map[string]interface{})
	if !ok || hs["count"] != int64(1) || hs["max"] != int64(6) {
		t.Errorf("d.hist = %v", exp["d.hist"])
	}
	if txt := r.FormatText(); txt == "" {
		t.Error("FormatText empty")
	}
}

func TestEnableDisable(t *testing.T) {
	Disable()
	if Default() != nil {
		t.Fatal("Default should be nil before Enable")
	}
	r := Enable()
	if r == nil || Default() != r {
		t.Fatal("Enable should install the default registry")
	}
	if again := Enable(); again != r {
		t.Error("second Enable should return the same registry")
	}
	Disable()
	if Default() != nil {
		t.Error("Default should be nil after Disable")
	}
}

// -metrics output is diffed between runs and archived in reports: the
// snapshot must serialize identically regardless of registry insertion or
// map-iteration order.
func TestFormatTextDeterministic(t *testing.T) {
	build := func(names []string) *Registry {
		r := NewRegistry()
		for _, n := range names {
			v := int64(len(n))
			r.Counter("c." + n).Add(v)
			r.Gauge("g." + n).Set(float64(v) * 1.5)
			r.Histogram("h." + n).Observe(v * 10)
		}
		return r
	}
	names := []string{"zeta", "alpha", "mid"}
	rev := []string{"mid", "alpha", "zeta"}
	a, b := build(names).FormatText(), build(rev).FormatText()
	if a != b {
		t.Errorf("FormatText depends on insertion order:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	for i := 1; i < len(lines); i++ {
		ni := strings.Fields(lines[i])[0]
		np := strings.Fields(lines[i-1])[0]
		if ni < np {
			t.Errorf("FormatText lines not sorted: %q after %q", ni, np)
		}
	}
}
