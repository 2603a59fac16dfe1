// Package obsv is the toolkit's zero-dependency observability layer: a
// metrics registry of cheap atomic counters, gauges and log-scale
// histograms with hierarchical dotted names (`sim.events`,
// `bdd.unique.hits`, `lpflow.pass.balance.us`). Per-net transition records
// are not telemetry: they live in sim.Counts, and per-run timings live in
// the spans of internal/obsv/trace.
//
// Instrumentation is opt-in and near-free when off. The process-wide
// registry is nil until Enable is called; every handle obtained from a nil
// registry is itself nil, and every method on a nil handle is a no-op, so
// instrumented hot paths pay only a pointer check when observability is
// disabled. Instrumented components (sim.Simulator, bdd.Manager) capture
// their handles at construction time — call Enable before building them.
package obsv

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// global is the process-wide registry; nil means observability is off.
var global atomic.Pointer[Registry]

// Default returns the process-wide registry, or nil when disabled. A nil
// *Registry is valid: its handle getters return nil no-op handles.
func Default() *Registry { return global.Load() }

// Enable installs (creating if necessary) and returns the process-wide
// registry. Safe for concurrent use; the first caller wins.
func Enable() *Registry {
	for {
		if r := global.Load(); r != nil {
			return r
		}
		if global.CompareAndSwap(nil, NewRegistry()) {
			return global.Load()
		}
	}
}

// Disable removes the process-wide registry. Handles already captured from
// it keep accumulating into the detached registry; components constructed
// afterwards get nil handles.
func Disable() { global.Store(nil) }

// Registry holds named metrics. All methods are safe for concurrent use
// and valid on a nil receiver (returning nil handles).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty enabled registry, independent of the
// process-wide one.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of log2 buckets: bucket i counts observations
// v with bits.Len(v) == i, i.e. 0, 1, 2–3, 4–7, 8–15, ...
const histBuckets = 32

// Histogram counts non-negative integer observations in log2 buckets —
// built for settle times and queue depths, where order of magnitude is
// what matters.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records v (clamped to >= 0). No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if old >= v || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Mean returns the mean observation (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(h.count.Load())
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Buckets returns the non-empty log2 buckets as lower-bound → count.
func (h *Histogram) Buckets() map[int64]int64 {
	if h == nil {
		return nil
	}
	out := make(map[int64]int64)
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << (i - 1)
			}
			out[lo] = n
		}
	}
	return out
}

// Export flattens the registry into a JSON-friendly map: counters become
// int64, gauges float64, and histograms {count, mean, max, buckets}
// objects. Nil registries export an empty map. The map is built from the
// deterministically ordered snapshot (name, then kind), so when one name
// is registered as several kinds the same kind wins on every export —
// never a map-iteration coin flip.
func (r *Registry) Export() map[string]interface{} {
	out := make(map[string]interface{})
	for _, pt := range r.snapshot() {
		switch pt.kind {
		case kindCounter:
			out[pt.name] = pt.c.Value()
		case kindGauge:
			out[pt.name] = pt.g.Value()
		case kindHistogram:
			bk := make(map[string]int64)
			for lo, n := range pt.h.Buckets() {
				bk[fmt.Sprintf("%d", lo)] = n
			}
			out[pt.name] = map[string]interface{}{
				"count":   pt.h.Count(),
				"mean":    pt.h.Mean(),
				"max":     pt.h.Max(),
				"buckets": bk,
			}
		}
	}
	return out
}

// FormatText renders the registry as sorted aligned "name value" lines for
// human consumption (cmd/experiments -metrics, cmd/lpflow -metrics).
func (r *Registry) FormatText() string {
	exp := r.Export()
	names := make([]string, 0, len(exp))
	width := 0
	for n := range exp {
		names = append(names, n)
		if len(n) > width {
			width = len(n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		switch v := exp[n].(type) {
		case int64:
			fmt.Fprintf(&b, "%-*s %d\n", width, n, v)
		case float64:
			fmt.Fprintf(&b, "%-*s %g\n", width, n, v)
		case map[string]interface{}:
			fmt.Fprintf(&b, "%-*s count=%v mean=%.1f max=%v\n", width, n, v["count"], v["mean"], v["max"])
		default:
			fmt.Fprintf(&b, "%-*s %v\n", width, n, v)
		}
	}
	return b.String()
}
