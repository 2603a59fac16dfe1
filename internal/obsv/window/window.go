// Package window provides lock-cheap rolling time windows for the
// continuous-telemetry layer: counters and log2 histograms that report over the last span of wall time instead
// of accumulating forever like the internal/obsv registry does.
//
// Each instrument is a ring of fixed-width buckets over a monotonic
// clock seam. A bucket covers one epoch (now/width); writers tag the
// slot with its epoch and reset it lazily when the ring wraps, so
// recording is a handful of atomic operations — no locks, no
// allocations, no background goroutine. Readers merge the slots whose
// epochs still fall inside the window and skip expired ones.
//
// The clock is injectable (Clock, a func returning monotonic
// nanoseconds), which makes window advance and expiry exactly testable
// under a stepped fake clock; the default Monotonic clock reads the
// runtime's monotonic timer. Under a single goroutine the bucket
// arithmetic is exact. Under concurrency a write that races a slot
// recycling at an epoch boundary can be attributed to the fresh epoch
// or (rarely) dropped — bounded, bucket-boundary-only imprecision,
// the standard trade for a lock-free ring.
package window

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Clock returns a monotonic time in nanoseconds. It must never go
// backwards; the zero point is arbitrary.
type Clock func() int64

var monotonicBase = time.Now()

// Monotonic is the default Clock: nanoseconds since process start,
// read from the runtime's monotonic timer (immune to wall-clock
// steps).
func Monotonic() int64 { return int64(time.Since(monotonicBase)) }

// geometry is the shared ring layout: n slots of width nanoseconds
// each, covering a window of n*width.
type geometry struct {
	clock Clock
	width int64
	n     int64
}

func newGeometry(span time.Duration, buckets int, clock Clock) geometry {
	if buckets < 2 {
		buckets = 2
	}
	width := int64(span) / int64(buckets)
	if width < 1 {
		width = 1
	}
	if clock == nil {
		clock = Monotonic
	}
	return geometry{clock: clock, width: width, n: int64(buckets)}
}

// epoch of a clock reading.
func (g geometry) epoch(now int64) int64 { return now / g.width }

// live reports whether a slot tagged slotEpoch still falls inside the
// window at the current epoch cur.
func (g geometry) live(slotEpoch, cur int64) bool {
	return slotEpoch >= 0 && cur-slotEpoch < g.n
}

// ---------------------------------------------------------------------------
// Counter

// cslot is one ring bucket of a Counter.
type cslot struct {
	epoch atomic.Int64
	count atomic.Int64
}

// Counter counts events over a rolling window.
type Counter struct {
	geo   geometry
	slots []cslot
}

// NewCounter builds a rolling counter covering span, split into
// buckets ring slots (minimum 2). A nil clock means Monotonic.
func NewCounter(span time.Duration, buckets int, clock Clock) *Counter {
	geo := newGeometry(span, buckets, clock)
	c := &Counter{geo: geo, slots: make([]cslot, geo.n)}
	for i := range c.slots {
		c.slots[i].epoch.Store(-1)
	}
	return c
}

// slot returns the ring slot for epoch e, recycling it if it still
// holds an older epoch.
func (c *Counter) slot(e int64) *cslot {
	s := &c.slots[e%c.geo.n]
	if old := s.epoch.Load(); old != e && s.epoch.CompareAndSwap(old, e) {
		s.count.Store(0)
	}
	return s
}

// Add records n events now.
func (c *Counter) Add(n int64) {
	c.slot(c.geo.epoch(c.geo.clock())).count.Add(n)
}

// Inc records one event now.
func (c *Counter) Inc() { c.Add(1) }

// Total returns the number of events recorded inside the window
// (including the current partial bucket).
func (c *Counter) Total() int64 {
	cur := c.geo.epoch(c.geo.clock())
	var total int64
	for i := range c.slots {
		s := &c.slots[i]
		if c.geo.live(s.epoch.Load(), cur) {
			total += s.count.Load()
		}
	}
	return total
}

// Rate returns events per second averaged over the full window span.
// Because the newest bucket is partial, a burst that just started
// reads slightly low until the window fills — steady-state rates are
// exact.
func (c *Counter) Rate() float64 {
	return float64(c.Total()) / c.Span().Seconds()
}

// Span returns the window length.
func (c *Counter) Span() time.Duration { return time.Duration(c.geo.width * c.geo.n) }

// ---------------------------------------------------------------------------
// Histogram

// histBuckets matches the obsv log2 layout: value bucket i counts
// observations v with bits.Len64(v) == i, so bucket 0 holds exactly
// v == 0 and bucket i covers [2^(i-1), 2^i-1].
const histBuckets = 32

// hslot is one ring bucket of a Histogram.
type hslot struct {
	epoch atomic.Int64
	count atomic.Int64
	sum   atomic.Int64
	max   atomic.Int64
	vals  [histBuckets]atomic.Int64
}

// Histogram is a rolling log2 histogram of non-negative integer
// observations (latencies in microseconds, queue depths) with
// percentile extraction over the window.
type Histogram struct {
	geo   geometry
	slots []hslot
}

// NewHistogram builds a rolling histogram covering span in buckets
// ring slots. A nil clock means Monotonic.
func NewHistogram(span time.Duration, buckets int, clock Clock) *Histogram {
	geo := newGeometry(span, buckets, clock)
	h := &Histogram{geo: geo, slots: make([]hslot, geo.n)}
	for i := range h.slots {
		h.slots[i].epoch.Store(-1)
	}
	return h
}

// Observe records v (clamped to >= 0) now.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	e := h.geo.epoch(h.geo.clock())
	s := &h.slots[e%h.geo.n]
	if old := s.epoch.Load(); old != e && s.epoch.CompareAndSwap(old, e) {
		s.count.Store(0)
		s.sum.Store(0)
		s.max.Store(0)
		for i := range s.vals {
			s.vals[i].Store(0)
		}
	}
	s.count.Add(1)
	s.sum.Add(v)
	for {
		old := s.max.Load()
		if old >= v || s.max.CompareAndSwap(old, v) {
			break
		}
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	s.vals[b].Add(1)
}

// Summary is a merged view of the histogram's window: counts, moments
// and the log2-quantized percentiles.
type Summary struct {
	Count int64
	Sum   int64
	Max   int64
	Mean  float64
	P50   int64
	P95   int64
	P99   int64
}

// BucketUpper returns the inclusive upper value bound of log2 bucket
// i: 0, 1, 3, 7, 15, ... — the same le bounds the Prometheus
// exposition uses.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1)<<uint(i) - 1
}

// merged collects the live slots into one bucket array.
func (h *Histogram) merged() (vals [histBuckets]int64, count, sum, max int64) {
	cur := h.geo.epoch(h.geo.clock())
	for i := range h.slots {
		s := &h.slots[i]
		if !h.geo.live(s.epoch.Load(), cur) {
			continue
		}
		count += s.count.Load()
		sum += s.sum.Load()
		if m := s.max.Load(); m > max {
			max = m
		}
		for b := range s.vals {
			vals[b] += s.vals[b].Load()
		}
	}
	return vals, count, sum, max
}

// percentileOf extracts the nearest-rank q-percentile from a merged
// bucket array, quantized to the containing bucket's upper bound.
func percentileOf(vals [histBuckets]int64, count int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	rank := int64(math.Ceil(float64(count) * q))
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += vals[i]
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(histBuckets - 1)
}

// Snapshot merges the window into one Summary.
func (h *Histogram) Snapshot() Summary {
	vals, count, sum, max := h.merged()
	s := Summary{Count: count, Sum: sum, Max: max}
	if count > 0 {
		s.Mean = float64(sum) / float64(count)
		s.P50 = percentileOf(vals, count, 0.50)
		s.P95 = percentileOf(vals, count, 0.95)
		s.P99 = percentileOf(vals, count, 0.99)
	}
	return s
}
