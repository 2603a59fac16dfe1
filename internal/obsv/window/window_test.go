package window

import (
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually stepped monotonic clock.
type fakeClock struct{ now atomic.Int64 }

func (f *fakeClock) Now() int64              { return f.now.Load() }
func (f *fakeClock) Advance(d time.Duration) { f.now.Add(int64(d)) }

// TestCounterAdvanceExpiryExact pins the window semantics bucket by
// bucket: a sample recorded at epoch e is visible exactly while the
// reader's epoch is < e+n, with no wall-clock sleeps anywhere.
func TestCounterAdvanceExpiryExact(t *testing.T) {
	fc := &fakeClock{}
	c := NewCounter(10*time.Second, 10, fc.Now) // 10 buckets of 1s
	if c.Span() != 10*time.Second {
		t.Fatalf("span = %v, want 10s", c.Span())
	}
	// One event per bucket for 10 buckets: all visible.
	for i := 0; i < 10; i++ {
		c.Inc()
		fc.Advance(time.Second)
	}
	// The clock now sits at the start of epoch 10: epoch 0 just expired.
	if got := c.Total(); got != 9 {
		t.Fatalf("after 10 one-per-bucket events and one advance, Total = %d, want 9", got)
	}
	// Each further advance expires exactly one more bucket.
	for i := 1; i <= 9; i++ {
		fc.Advance(time.Second)
		if got := c.Total(); got != int64(9-i) {
			t.Fatalf("after %d extra advances, Total = %d, want %d", i, got, 9-i)
		}
	}
	// A burst inside one bucket stays visible for the full window...
	c.Add(41)
	c.Inc()
	if got := c.Total(); got != 42 {
		t.Fatalf("burst Total = %d, want 42", got)
	}
	fc.Advance(9*time.Second + 999*time.Millisecond)
	if got := c.Total(); got != 42 {
		t.Fatalf("burst should survive to the window edge, Total = %d", got)
	}
	// ...and vanishes the instant its epoch leaves the window.
	fc.Advance(time.Millisecond)
	if got := c.Total(); got != 0 {
		t.Fatalf("burst should have expired, Total = %d", got)
	}
	// A clock jump far past the ring clears everything.
	c.Add(7)
	fc.Advance(24 * time.Hour)
	if got := c.Total(); got != 0 {
		t.Fatalf("after a huge jump, Total = %d, want 0", got)
	}
}

func TestCounterRate(t *testing.T) {
	fc := &fakeClock{}
	c := NewCounter(10*time.Second, 10, fc.Now)
	for i := 0; i < 10; i++ {
		c.Add(5)
		fc.Advance(time.Second)
	}
	// 9 in-window buckets x 5 events over a 10s span = 4.5/s; the rate
	// denominator is the full span, deterministically.
	if got := c.Rate(); got != 4.5 {
		t.Fatalf("Rate = %g, want 4.5", got)
	}
}

// bruteForcePercentile is the reference: nearest-rank over a sorted
// copy, then quantized to the log2 bucket upper bound — the precision
// the histogram promises.
func bruteForcePercentile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(float64(len(sorted))*q + 0.9999999) // ceil without math import drama
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	v := sorted[rank-1]
	return BucketUpper(bits.Len64(uint64(v)))
}

// TestHistogramPercentilesMatchBruteForce drives random observations
// through a stepped fake clock and checks, at every read point, that
// the windowed percentiles equal a brute-force sort of exactly the
// samples still inside the window.
func TestHistogramPercentilesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		fc := &fakeClock{}
		buckets := 2 + r.Intn(12)
		width := time.Duration(1+r.Intn(5)) * time.Second
		h := NewHistogram(width*time.Duration(buckets), buckets, fc.Now)

		type stamped struct {
			at int64
			v  int64
		}
		var all []stamped
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			v := int64(r.Intn(1 << uint(r.Intn(20))))
			h.Observe(v)
			all = append(all, stamped{at: fc.Now(), v: v})
			if r.Intn(3) == 0 {
				fc.Advance(time.Duration(r.Int63n(int64(width) * 2)))
			}
		}
		// Which samples are still live? Exactly those whose epoch is
		// within the last `buckets` epochs.
		cur := fc.Now() / int64(h.geo.width)
		var live []int64
		var sum, max int64
		for _, s := range all {
			if e := s.at / int64(h.geo.width); cur-e < int64(buckets) {
				live = append(live, s.v)
				sum += s.v
				if s.v > max {
					max = s.v
				}
			}
		}
		snap := h.Snapshot()
		if snap.Count != int64(len(live)) || snap.Sum != sum || snap.Max != max {
			t.Fatalf("trial %d: snapshot {count %d sum %d max %d}, brute force {%d %d %d}",
				trial, snap.Count, snap.Sum, snap.Max, len(live), sum, max)
		}
		vals, count, _, _ := h.merged()
		for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
			want := bruteForcePercentile(live, q)
			if got := percentileOf(vals, count, q); got != want {
				t.Fatalf("trial %d: P%.0f = %d, brute force %d (live %v)",
					trial, q*100, got, want, live)
			}
		}
		if snap.P50 != bruteForcePercentile(live, 0.50) ||
			snap.P95 != bruteForcePercentile(live, 0.95) ||
			snap.P99 != bruteForcePercentile(live, 0.99) {
			t.Fatalf("trial %d: Snapshot percentiles disagree with brute force", trial)
		}
	}
}

func TestHistogramExpiry(t *testing.T) {
	fc := &fakeClock{}
	h := NewHistogram(6*time.Second, 6, fc.Now)
	h.Observe(100)
	h.Observe(200)
	fc.Advance(3 * time.Second)
	h.Observe(1000)
	if got := h.Snapshot().Count; got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	fc.Advance(3 * time.Second) // first bucket expires
	snap := h.Snapshot()
	if snap.Count != 1 || snap.Sum != 1000 || snap.Max != 1000 {
		t.Fatalf("after expiry: %+v, want count 1 sum 1000 max 1000", snap)
	}
	fc.Advance(6 * time.Second)
	if got := h.Snapshot(); got != (Summary{}) {
		t.Fatalf("fully expired window not empty: %+v", got)
	}
}

// TestRecordingDoesNotAllocate is the hot-path contract: windowed
// recording must add zero steady-state allocations per request.
func TestRecordingDoesNotAllocate(t *testing.T) {
	fc := &fakeClock{}
	c := NewCounter(time.Minute, 30, fc.Now)
	h := NewHistogram(time.Minute, 30, fc.Now)
	var v int64
	if got := testing.AllocsPerRun(1000, func() {
		fc.Advance(137 * time.Millisecond) // cross bucket boundaries too
		c.Inc()
		c.Add(3)
		v += 5
		h.Observe(v % 4096)
	}); got != 0 {
		t.Fatalf("recording allocates %.1f objects per op, want 0", got)
	}
}

// TestConcurrentRecording hammers both instruments from many
// goroutines under the race detector. Boundary races may drop a
// bucket-recycle-adjacent sample, so the assertion is sanity bounds,
// not exact counts.
func TestConcurrentRecording(t *testing.T) {
	fc := &fakeClock{}
	c := NewCounter(time.Second, 10, fc.Now)
	h := NewHistogram(time.Second, 10, fc.Now)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(int64(i % 1000))
				if i%100 == 0 {
					fc.Advance(time.Millisecond)
					c.Total()
					h.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	// The clock advanced ~160ms < 1s window: nothing expired, so only
	// boundary races may shave counts.
	if got := c.Total(); got <= 0 || got > workers*per {
		t.Fatalf("concurrent Total = %d, want (0, %d]", got, workers*per)
	}
	if got := h.Snapshot().Count; got <= 0 || got > workers*per {
		t.Fatalf("concurrent histogram Count = %d, want (0, %d]", got, workers*per)
	}
}

func TestBucketUpper(t *testing.T) {
	for i, want := range []int64{0, 1, 3, 7, 15, 31} {
		if got := BucketUpper(i); got != want {
			t.Errorf("BucketUpper(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestMonotonicClockAdvances(t *testing.T) {
	a := Monotonic()
	b := Monotonic()
	if b < a {
		t.Fatalf("Monotonic went backwards: %d then %d", a, b)
	}
}

func BenchmarkWindowRecord(b *testing.B) {
	c := NewCounter(5*time.Minute, 30, nil)
	h := NewHistogram(5*time.Minute, 30, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(int64(i & 4095))
	}
}
