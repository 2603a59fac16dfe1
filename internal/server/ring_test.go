package server

import (
	"encoding/json"
	"math/bits"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ringServer builds a server whose rings run on a manual clock.
func ringServer() (*Server, *manualClock) {
	mc := &manualClock{}
	return New(Config{Clock: mc.Now}), mc
}

// recordN records n finished requests on endpoint ep at the current
// clock reading.
func recordN(s *Server, ep string, n int, status int, elapsed time.Duration, cache string, degraded bool) {
	for i := 0; i < n; i++ {
		s.tel.record(s.tel.eps[ep], status, elapsed, cache, degraded)
	}
}

// endpointRow returns ep's row of a status snapshot.
func endpointRow(t *testing.T, st StatusResponse, ep string) EndpointStatus {
	t.Helper()
	for _, e := range st.Endpoints {
		if e.Endpoint == ep {
			return e
		}
	}
	t.Fatalf("no %q row in %+v", ep, st.Endpoints)
	return EndpointStatus{}
}

// TestRingExpiryExact pins both horizons slot by slot: a request recorded
// in epoch e is counted exactly while the reader's epoch is below e+n,
// with no wall-clock sleeps anywhere.
func TestRingExpiryExact(t *testing.T) {
	s, mc := ringServer()
	// One request per 10s slot for 30 slots fills the 5m ring.
	for i := 0; i < shortSlots; i++ {
		recordN(s, "estimate", 1, http.StatusOK, time.Millisecond, "miss", false)
		mc.Advance(10 * time.Second)
	}
	// The clock sits at the start of epoch 30: epoch 0 just expired.
	if got := endpointRow(t, s.statusSnapshot(), "estimate").Requests; got != shortSlots-1 {
		t.Fatalf("after %d one-per-slot requests, requests = %d, want %d", shortSlots, got, shortSlots-1)
	}
	// Each further step expires exactly one more slot.
	for i := 1; i < shortSlots; i++ {
		mc.Advance(10 * time.Second)
		if got := endpointRow(t, s.statusSnapshot(), "estimate").Requests; got != int64(shortSlots-1-i) {
			t.Fatalf("after %d extra steps, requests = %d, want %d", i, got, shortSlots-1-i)
		}
	}
	// A burst inside one slot stays for the full window, to the
	// nanosecond, and vanishes the instant its epoch leaves it.
	recordN(s, "estimate", 42, http.StatusOK, time.Millisecond, "miss", false)
	mc.Advance(shortWindow - time.Nanosecond)
	if got := endpointRow(t, s.statusSnapshot(), "estimate").Requests; got != 42 {
		t.Fatalf("burst should survive to the 5m edge, requests = %d", got)
	}
	mc.Advance(time.Nanosecond)
	if got := endpointRow(t, s.statusSnapshot(), "estimate").Requests; got != 0 {
		t.Fatalf("burst should have expired, requests = %d", got)
	}

	// The 1h ring, one computation per 60s slot.
	long := func() int64 { return s.statusSnapshot().Objectives[0].Burn[1].Events }
	mc.now.Store(int64(3 * longWindow)) // empty, at a 1h-slot boundary
	for i := 0; i < longSlots; i++ {
		recordN(s, "flow", 1, http.StatusOK, time.Millisecond, "miss", false)
		mc.Advance(time.Minute)
	}
	if got := long(); got != longSlots-1 {
		t.Fatalf("after %d one-per-slot requests, 1h events = %d, want %d", longSlots, got, longSlots-1)
	}
	for i := 1; i < longSlots; i++ {
		mc.Advance(time.Minute)
		if got := long(); got != int64(longSlots-1-i) {
			t.Fatalf("after %d extra steps, 1h events = %d, want %d", i, got, longSlots-1-i)
		}
	}
	recordN(s, "experiment", 7, http.StatusOK, time.Millisecond, "miss", false)
	mc.Advance(longWindow - time.Nanosecond)
	if got := long(); got != 7 {
		t.Fatalf("burst should survive to the 1h edge, events = %d", got)
	}
	mc.Advance(time.Nanosecond)
	if got := long(); got != 0 {
		t.Fatalf("burst should have expired from the 1h ring, events = %d", got)
	}

	// A clock jump far past both rings clears everything.
	recordN(s, "batch", 5, http.StatusOK, time.Millisecond, "miss", false)
	mc.Advance(24 * time.Hour)
	st := s.statusSnapshot()
	if got := endpointRow(t, st, "batch").Requests; got != 0 || st.Objectives[0].Burn[1].Events != 0 {
		t.Fatalf("after a huge jump: batch requests %d, 1h events %d, want 0", got, st.Objectives[0].Burn[1].Events)
	}
}

// TestRingRate checks the windowed rate: the denominator is the full 5m
// span, deterministically, even while the newest slot is partial.
func TestRingRate(t *testing.T) {
	s, mc := ringServer()
	for i := 0; i < shortSlots; i++ {
		recordN(s, "healthz", 5, http.StatusOK, time.Millisecond, "-", false)
		mc.Advance(10 * time.Second)
	}
	mc.Advance(-time.Nanosecond) // the last instant before epoch 0 expires
	if got := endpointRow(t, s.statusSnapshot(), "healthz").RateRPS; got != 0.5 {
		t.Fatalf("rate = %g, want 150 requests / 300s = 0.5", got)
	}
}

// bruteForcePercentile is the reference: nearest-rank over a sorted
// copy, then quantized to the log2 bucket upper bound — the precision
// the ring promises.
func bruteForcePercentile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(float64(len(sorted))*q + 0.9999999)
	rank = min(max(rank, 1), len(sorted))
	return 1<<min(bits.Len64(uint64(sorted[rank-1])), latBuckets-1) - 1
}

// TestRingPercentilesMatchBruteForce records random latencies under a
// randomly stepped clock and checks, at every read point, that the
// windowed count, max and percentiles equal a brute-force pass over
// exactly the samples still inside the 5m window.
func TestRingPercentilesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s, mc := ringServer()
		type stamped struct{ at, us int64 }
		var all []stamped
		for i, n := 0, 1+r.Intn(200); i < n; i++ {
			us := int64(r.Intn(1 << uint(r.Intn(24))))
			recordN(s, "estimate", 1, http.StatusOK, time.Duration(us)*time.Microsecond, "miss", false)
			all = append(all, stamped{at: mc.Now(), us: us})
			if r.Intn(3) == 0 {
				mc.Advance(time.Duration(r.Int63n(int64(20 * time.Second))))
			}
		}
		cur := mc.Now() / shortWidth
		var live []int64
		var maxUS int64
		for _, x := range all {
			if cur-x.at/shortWidth < shortSlots {
				live = append(live, x.us)
				maxUS = max(maxUS, x.us)
			}
		}
		w := s.tel.eps["estimate"].window(mc.Now())
		if w.requests != int64(len(live)) || w.maxUS != maxUS {
			t.Fatalf("trial %d: window {count %d max %d}, brute force {%d %d}", trial, w.requests, w.maxUS, len(live), maxUS)
		}
		for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
			if got, want := w.percentile(q), bruteForcePercentile(live, q); got != want {
				t.Fatalf("trial %d: P%.0f = %d, brute force %d (live %v)", trial, q*100, got, want, live)
			}
		}
		e := endpointRow(t, s.statusSnapshot(), "estimate")
		if e.P50US != bruteForcePercentile(live, 0.50) || e.P95US != bruteForcePercentile(live, 0.95) ||
			e.P99US != bruteForcePercentile(live, 0.99) || e.MaxUS != maxUS {
			t.Fatalf("trial %d: status percentiles %+v disagree with brute force", trial, e)
		}
	}
}

// TestRingBucketUpper pins the quantization: a lone sample reads back as
// its log2 bucket's upper bound (0, 1, 3, 7, ...), the le bounds of the
// Prometheus exposition, and anything past the last bucket clamps to it.
func TestRingBucketUpper(t *testing.T) {
	for _, c := range []struct{ us, want int64 }{
		{0, 0}, {1, 1}, {2, 3}, {3, 3}, {4, 7}, {8, 15}, {16, 31}, {1 << 40, 1<<31 - 1},
	} {
		s, mc := ringServer()
		recordN(s, "estimate", 1, http.StatusOK, time.Duration(c.us)*time.Microsecond, "miss", false)
		if w := s.tel.eps["estimate"].window(mc.Now()); w.percentile(0.5) != c.want {
			t.Errorf("P50 of one %dus sample = %d, want %d", c.us, w.percentile(0.5), c.want)
		}
	}
}

// TestRingLatencyExpiry checks that the histogram, max included, slides
// with the slots it was recorded in.
func TestRingLatencyExpiry(t *testing.T) {
	s, mc := ringServer()
	recordN(s, "flow", 1, http.StatusOK, 100*time.Microsecond, "miss", false)
	recordN(s, "flow", 1, http.StatusOK, 200*time.Microsecond, "miss", false)
	mc.Advance(150 * time.Second)
	recordN(s, "flow", 1, http.StatusOK, 1000*time.Microsecond, "miss", false)
	if e := endpointRow(t, s.statusSnapshot(), "flow"); e.Requests != 3 || e.MaxUS != 1000 || e.P50US != 255 {
		t.Fatalf("before expiry: %+v, want 3 requests, max 1000, p50 255", e)
	}
	mc.Advance(150 * time.Second) // the first slot expires
	if e := endpointRow(t, s.statusSnapshot(), "flow"); e.Requests != 1 || e.MaxUS != 1000 || e.P50US != 1023 || e.P99US != 1023 {
		t.Fatalf("after expiry: %+v, want 1 request, max 1000, percentiles 1023", e)
	}
	mc.Advance(shortWindow)
	if e := endpointRow(t, s.statusSnapshot(), "flow"); e != (EndpointStatus{Endpoint: "flow"}) {
		t.Fatalf("fully expired window not empty: %+v", e)
	}
}

// TestRingConcurrentRecording hammers the record path from many
// goroutines under the race detector, with readers and clock steps
// interleaved. A write racing a slot recycle may be dropped, so the
// assertion is bounds, not exact counts.
func TestRingConcurrentRecording(t *testing.T) {
	s, mc := ringServer()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				recordN(s, "estimate", 1, http.StatusOK, time.Duration(i%1000)*time.Microsecond, "hit", false)
				if i%100 == 0 {
					mc.Advance(time.Millisecond)
					s.statusSnapshot()
				}
			}
		}()
	}
	wg.Wait()
	st := s.statusSnapshot()
	if got := endpointRow(t, st, "estimate").Requests; got <= 0 || got > workers*per {
		t.Fatalf("concurrent requests = %d, want (0, %d]", got, workers*per)
	}
	if got := st.Objectives[0].Burn[1].Events; got <= 0 || got > workers*per {
		t.Fatalf("concurrent 1h events = %d, want (0, %d]", got, workers*per)
	}
}

// TestRingRecordingDoesNotAllocate pins the ring write and read cost
// when slots turn over: recording that recycles slots of both the 5m
// and the 1h ring, and summing the live 5m slots, allocate nothing.
func TestRingRecordingDoesNotAllocate(t *testing.T) {
	s, mc := ringServer()
	et := s.tel.eps["estimate"]
	var i int64
	if got := testing.AllocsPerRun(1000, func() {
		mc.Advance(13700 * time.Millisecond) // cross slot boundaries too
		i++
		s.tel.record(et, http.StatusOK, time.Duration(i%4096)*time.Microsecond, "hit", i%7 == 0)
		if w := et.window(mc.Now()); w.requests == 0 {
			t.Fatal("window lost the request just recorded")
		}
	}); got != 0 {
		t.Fatalf("recording across slot recycles allocates %.1f objects per request, want 0", got)
	}
}

func TestMonotonicClockAdvances(t *testing.T) {
	a := monotonic()
	b := monotonic()
	if b < a {
		t.Fatalf("monotonic went backwards: %d then %d", a, b)
	}
	if New(Config{}).cfg.Clock == nil {
		t.Fatal("Config.Clock has no default")
	}
}

// TestRecordReadsClockOnce pins the one-record rule: a finished request
// reads the clock once, whichever horizons it feeds.
func TestRecordReadsClockOnce(t *testing.T) {
	var reads atomic.Int64
	s := New(Config{Clock: func() int64 { reads.Add(1); return int64(time.Hour) }})
	for _, c := range []struct {
		ep       string
		status   int
		elapsed  time.Duration
		degraded bool
	}{
		{"estimate", http.StatusOK, time.Millisecond, false},
		{"flow", http.StatusInternalServerError, 3 * time.Second, true},
		{"healthz", http.StatusOK, time.Microsecond, false},
	} {
		reads.Store(0)
		s.tel.record(s.tel.eps[c.ep], c.status, c.elapsed, "miss", c.degraded)
		if got := reads.Load(); got != 1 {
			t.Errorf("%s request read the clock %d times, want 1", c.ep, got)
		}
	}
}

// TestBurnState pins the state strings and the thresholds between them.
func TestBurnState(t *testing.T) {
	for _, c := range []struct {
		burn float64
		want string
	}{{0, "ok"}, {0.99, "ok"}, {warnBurn, "warn"}, {9.99, "warn"}, {breachBurn, "breach"}, {1e9, "breach"}} {
		if got := burnState(c.burn); got != c.want {
			t.Errorf("burnState(%g) = %q, want %q", c.burn, got, c.want)
		}
	}
	for _, state := range []string{"ok", "warn", "breach"} {
		if stateValue(state) != map[string]int{"ok": 0, "warn": 1, "breach": 2}[state] {
			t.Errorf("stateValue(%q) = %d", state, stateValue(state))
		}
	}
}

// TestBurnVerdictFlipsOnErrorBurst: healthy traffic reads ok with zero
// burn on both horizons, a sustained error burst that fills the 5m
// horizon breaches, and once the 5m horizon drains the multi-window
// rule de-escalates, though the 1h horizon still holds the burst.
func TestBurnVerdictFlipsOnErrorBurst(t *testing.T) {
	s, mc := ringServer()
	recordStep := func(n, status int) {
		for i := 0; i < n; i++ {
			recordN(s, "estimate", 1, status, time.Millisecond, "miss", false)
			mc.Advance(10 * time.Second)
		}
	}

	recordStep(60, http.StatusOK) // 10m of healthy traffic
	v := s.statusSnapshot().Objectives[0]
	if v.Objective != "availability" || v.State != "ok" {
		t.Fatalf("healthy traffic: %+v, want availability ok", v)
	}
	if len(v.Burn) != 2 || v.Burn[0].Horizon != "5m" || v.Burn[1].Horizon != "1h" ||
		v.Burn[0].Burn != 0 || v.Burn[1].Burn != 0 {
		t.Fatalf("healthy burn points wrong: %+v", v.Burn)
	}

	// 5m of hard 500s, one per 10s slot: the 5m horizon holds nothing
	// but errors (the first of the 30 has just expired from it).
	recordStep(30, http.StatusInternalServerError)
	st := s.statusSnapshot()
	v = st.Objectives[0]
	if st.SLO != "breach" || v.State != "breach" {
		t.Fatalf("error burst: SLO %q, %+v, want breach", st.SLO, v)
	}
	if v.Burn[0].Events != shortSlots-1 || v.Burn[0].Bad != v.Burn[0].Events || v.Burn[0].BadFraction != 1.0 {
		t.Fatalf("5m point during the burst: %+v, want %d events, all bad", v.Burn[0], shortSlots-1)
	}
	if v.Burn[1].Events != 90 || v.Burn[1].Bad != 30 {
		t.Fatalf("1h point during the burst: %+v, want 30 bad of 90", v.Burn[1])
	}

	// 5m10s of good traffic drains the 5m horizon.
	recordStep(31, http.StatusOK)
	v = s.statusSnapshot().Objectives[0]
	if v.State != "ok" || v.Burn[0].Bad != 0 {
		t.Fatalf("post-recovery: %+v, want ok with a clean 5m horizon", v)
	}
	if v.Burn[1].Bad != 30 || v.Burn[1].Burn < breachBurn {
		t.Fatalf("1h point after recovery: %+v, want the 30 errors still burning", v.Burn[1])
	}
}

// TestBurnVerdictFlipsOnLatencyBurst: a partial latency burst lands in
// warn, a full one in breach, and drained horizons read ok.
func TestBurnVerdictFlipsOnLatencyBurst(t *testing.T) {
	s, mc := ringServer()
	// 20% of requests at the 2s threshold: burn 4 on both horizons.
	for i := 0; i < 60; i++ {
		elapsed := time.Millisecond
		if i%5 == 0 {
			elapsed = latencyThreshold
		}
		recordN(s, "flow", 1, http.StatusOK, elapsed, "miss", false)
		mc.Advance(10 * time.Second)
	}
	if v := s.statusSnapshot().Objectives[1]; v.Objective != "latency" || v.State != "warn" {
		t.Fatalf("20%% slow: %+v, want warn", v)
	}
	// Everything slow for 10m: burn 20 on the 5m horizon, over 10 on the
	// 1h one.
	for i := 0; i < 60; i++ {
		recordN(s, "flow", 1, http.StatusOK, 3*time.Second, "miss", false)
		mc.Advance(10 * time.Second)
	}
	if v := s.statusSnapshot().Objectives[1]; v.State != "breach" {
		t.Fatalf("full burst: %+v, want breach", v)
	}
	if v := s.statusSnapshot().Objectives[0]; v.State != "ok" {
		t.Fatalf("availability should stay ok during a latency burst: %+v", v)
	}
	mc.Advance(2 * time.Hour)
	if v := s.statusSnapshot().Objectives[1]; v.State != "ok" {
		t.Fatalf("drained: %+v, want ok", v)
	}
}

// TestBurnShortBlipDoesNotBreach is the point of multi-window
// evaluation: a blip that heats the 5m horizon but barely moves the 1h
// one must not escalate.
func TestBurnShortBlipDoesNotBreach(t *testing.T) {
	s, mc := ringServer()
	for i := 0; i < 330; i++ { // 55m of healthy traffic
		recordN(s, "estimate", 1, http.StatusOK, time.Millisecond, "miss", false)
		mc.Advance(10 * time.Second)
	}
	recordN(s, "estimate", 3, http.StatusOK, 3*time.Second, "miss", false)
	// 5m: 3 slow of 32 -> burn 1.875. 1h: 3 of 333 -> burn 0.18.
	v := s.statusSnapshot().Objectives[1]
	if v.State != "ok" || v.Burn[0].Burn < warnBurn || v.Burn[1].Burn >= warnBurn {
		t.Fatalf("short blip: %+v, want ok with only the 5m horizon hot", v)
	}
}

// TestBurnMinEventsSuppressesEmptyHorizons: a horizon with no events
// abstains with burn 0, so it holds the verdict at ok however hot the
// other horizon burns.
func TestBurnMinEventsSuppressesEmptyHorizons(t *testing.T) {
	s, mc := ringServer()
	recordN(s, "experiment", 5, http.StatusInternalServerError, time.Millisecond, "-", false)
	mc.Advance(shortWindow) // the 5m horizon empties
	v := s.statusSnapshot().Objectives[0]
	if v.State != "ok" || v.Burn[0].Events != 0 || v.Burn[0].Burn != 0 || v.Burn[0].BadFraction != 0 {
		t.Fatalf("empty 5m horizon: %+v, want ok with zero burn", v)
	}
	if v.Burn[1].Burn < breachBurn {
		t.Fatalf("1h burn = %g, want past the breach threshold", v.Burn[1].Burn)
	}
	recordN(s, "experiment", 1, http.StatusInternalServerError, time.Millisecond, "-", false)
	if v = s.statusSnapshot().Objectives[0]; v.State != "breach" {
		t.Fatalf("both horizons burning: %+v, want breach", v)
	}
}

// TestVerdictJSONStable pins the verdict JSON shape lptop and CI read.
func TestVerdictJSONStable(t *testing.T) {
	s, _ := ringServer()
	recordN(s, "estimate", 4, http.StatusOK, time.Millisecond, "miss", false)
	b1, err := json.Marshal(s.statusSnapshot().Objectives[0])
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(s.statusSnapshot().Objectives[0])
	want := `{"objective":"availability","budget":0.001,"state":"ok","burn":[{"horizon":"5m","events":4,"bad":0,"bad_fraction":0,"burn":0},{"horizon":"1h","events":4,"bad":0,"bad_fraction":0,"burn":0}]}`
	if string(b1) != want || string(b2) != want {
		t.Fatalf("verdict JSON = %s / %s\nwant %s", b1, b2, want)
	}
}
