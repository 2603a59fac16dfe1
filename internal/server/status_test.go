package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stepClock is a deterministic monotonic clock: every reading advances
// by a fixed step, so two servers driven through identical request
// sequences observe identical timestamps and latencies.
type stepClock struct {
	step int64
	now  atomic.Int64
}

func (c *stepClock) Now() int64 { return c.now.Add(c.step) }

// manualClock only moves when told to.
type manualClock struct{ now atomic.Int64 }

func (c *manualClock) Now() int64              { return c.now.Load() }
func (c *manualClock) Advance(d time.Duration) { c.now.Add(int64(d)) }

// driveStatusSequence sends one fixed, serial request sequence through
// a handler: a couple of estimates (one cache hit), a healthz and a
// status probe.
func driveStatusSequence(t *testing.T, h http.Handler) {
	t.Helper()
	req := map[string]any{"circuit": "cla8", "estimator": "propagated"}
	for i := 0; i < 3; i++ {
		rec := doJSON(t, h, http.MethodPost, "/v1/estimate", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("estimate status %d: %s", rec.Code, rec.Body.String())
		}
	}
	if rec := doJSON(t, h, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	if rec := doJSON(t, h, http.MethodGet, "/v1/status", nil); rec.Code != http.StatusOK {
		t.Fatalf("status status %d", rec.Code)
	}
}

// TestStatusByteDeterministicUnderFakeClock drives two independent
// servers, each under its own identically-stepped fake clock, through
// the same serial request sequence and requires the /v1/status bodies
// to be byte-identical — the windowed report depends only on the clock
// and the request history, never on wall time or map order.
func TestStatusByteDeterministicUnderFakeClock(t *testing.T) {
	body := func() []byte {
		cfg := Config{
			Workers: 2,
			Clock:   (&stepClock{step: int64(700 * time.Microsecond)}).Now,
		}
		h := New(cfg).Handler()
		driveStatusSequence(t, h)
		rec := doJSON(t, h, http.MethodGet, "/v1/status", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("status code %d", rec.Code)
		}
		return rec.Body.Bytes()
	}
	// The "inflight" fields read the process-wide registry gauges, so the
	// two bodies match only while no other test has a request in flight;
	// a difference confined to "inflight" points there, not at the rings.
	b1, b2 := body(), body()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("status bodies differ:\n%s\n%s", b1, b2)
	}
	var st StatusResponse
	if err := json.Unmarshal(b1, &st); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st.SLO != "ok" {
		t.Fatalf("slo = %q, want ok (%s)", st.SLO, b1)
	}
	if st.Window != "5m" || st.NowNS == 0 {
		t.Fatalf("window/now wrong: %+v", st)
	}
	var est *EndpointStatus
	for i := range st.Endpoints {
		if st.Endpoints[i].Endpoint == "estimate" {
			est = &st.Endpoints[i]
		}
	}
	if est == nil || est.Requests != 3 || est.Errors != 0 {
		t.Fatalf("estimate endpoint stats wrong: %+v", est)
	}
	// 3 requests over the 5m window.
	if est.RateRPS != 0.01 {
		t.Fatalf("estimate rate = %g, want 0.01", est.RateRPS)
	}
	// Percentiles quantize up to their log2 bucket bound, so they can
	// exceed the exact max; just require a sane ordering.
	if est.P50US == 0 || est.P95US < est.P50US || est.P99US < est.P95US || est.MaxUS == 0 {
		t.Fatalf("estimate latency percentiles wrong: %+v", est)
	}
	// Two of the three identical estimates were result-cache hits.
	if est.CacheHitRatio < 0.6 || est.CacheHitRatio > 0.7 {
		t.Fatalf("cache hit ratio = %g, want 2/3", est.CacheHitRatio)
	}
	// The CI smoke greps this exact adjacency; keep it pinned.
	if !bytes.Contains(b1, []byte(`"endpoint":"estimate","requests":3`)) {
		t.Fatalf("status body lost the endpoint/requests field adjacency: %s", b1)
	}
	if !bytes.Contains(b1, []byte(`"slo":"ok"`)) {
		t.Fatalf("status body lost the slo field: %s", b1)
	}
}

// TestStatusSLOFlipsOnSyntheticBursts injects synthetic error and
// latency bursts straight into the telemetry layer under a manual
// clock, stepped across the 5m and 1h horizons, and watches the
// verdicts flip ok -> breach -> ok.
func TestStatusSLOFlipsOnSyntheticBursts(t *testing.T) {
	mc := &manualClock{}
	s := New(Config{Clock: mc.Now})

	// A minute of healthy traffic.
	for i := 0; i < 60; i++ {
		s.tel.record(s.tel.eps["estimate"], http.StatusOK, time.Millisecond, "miss", false)
		mc.Advance(time.Second)
	}
	st := s.statusSnapshot()
	if st.SLO != "ok" {
		t.Fatalf("healthy SLO = %q, want ok: %+v", st.SLO, st.Objectives)
	}
	if len(st.Objectives) != 3 || st.Objectives[0].Objective != "availability" {
		t.Fatalf("objectives wrong: %+v", st.Objectives)
	}

	// 30s of hard 500s: availability breaches on every horizon.
	for i := 0; i < 30; i++ {
		s.tel.record(s.tel.eps["estimate"], http.StatusInternalServerError, time.Millisecond, "-", false)
		mc.Advance(time.Second)
	}
	st = s.statusSnapshot()
	if st.SLO != "breach" || st.Objectives[0].State != "breach" {
		t.Fatalf("error burst SLO = %q / availability %q, want breach: %+v",
			st.SLO, st.Objectives[0].State, st.Objectives)
	}

	// Recovery: the short horizon drains after 5m of good traffic (plus
	// its partial newest bucket) and the multi-window rule de-escalates,
	// though the 1h horizon still holds the errors.
	for i := 0; i < 320; i++ {
		s.tel.record(s.tel.eps["estimate"], http.StatusOK, time.Millisecond, "hit", false)
		mc.Advance(time.Second)
	}
	if st = s.statusSnapshot(); st.SLO != "ok" {
		t.Fatalf("post-recovery SLO = %q, want ok: %+v", st.SLO, st.Objectives)
	}

	// A latency burst (everything slower than the 2s threshold) breaches
	// the latency objective without touching availability. It lasts 7m,
	// so slow requests are also over half of the 830 events in the 1h
	// horizon.
	for i := 0; i < 420; i++ {
		s.tel.record(s.tel.eps["flow"], http.StatusOK, 3*time.Second, "miss", false)
		mc.Advance(time.Second)
	}
	st = s.statusSnapshot()
	if st.Objectives[1].Objective != "latency" || st.Objectives[1].State != "breach" {
		t.Fatalf("latency burst verdicts: %+v", st.Objectives)
	}
	if st.Objectives[0].State != "ok" {
		t.Fatalf("availability should stay ok during a latency burst: %+v", st.Objectives[0])
	}

	// Non-API endpoints never feed the SLO: a storm of healthz 500s
	// (however implausible) cannot move the objectives.
	mc.Advance(2 * time.Hour) // drain everything
	for i := 0; i < 50; i++ {
		s.tel.record(s.tel.eps["healthz"], http.StatusInternalServerError, time.Millisecond, "-", false)
		mc.Advance(100 * time.Millisecond)
	}
	if st = s.statusSnapshot(); st.SLO != "ok" {
		t.Fatalf("healthz errors moved the SLO to %q: %+v", st.SLO, st.Objectives)
	}
}

// TestStatusPromFold checks the Prometheus rendering on both routes:
// /v1/status?format=prom serves just the windowed/SLO rows, and
// /metrics?format=prom appends them after the registry exposition.
func TestStatusPromFold(t *testing.T) {
	h := New(Config{}).Handler()
	doJSON(t, h, http.MethodPost, "/v1/estimate", map[string]any{"circuit": "cla8", "estimator": "propagated"})

	rec := doJSON(t, h, http.MethodGet, "/v1/status?format=prom", nil)
	out := rec.Body.String()
	for _, want := range []string{
		"# HELP server_window_requests ",
		"# TYPE server_window_requests gauge\n",
		`server_window_requests{endpoint="estimate"} 1`,
		`server_window_latency_us{endpoint="estimate",quantile="0.95"} `,
		`server_slo_burn{objective="availability",horizon="5m"} 0`,
		`server_slo_state{objective="availability"} 0`,
		`server_slo_state{objective="latency"} 0`,
		`server_slo_state{objective="degraded"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status prom missing %q in:\n%s", want, out)
		}
	}

	rec = doJSON(t, h, http.MethodGet, "/metrics?format=prom", nil)
	out = rec.Body.String()
	if !strings.Contains(out, "# TYPE server_requests counter\n") {
		t.Fatalf("metrics prom lost the registry exposition:\n%s", out)
	}
	if !strings.Contains(out, `server_window_requests{endpoint="estimate"} `) {
		t.Fatalf("metrics prom did not fold the status rows in:\n%s", out)
	}
	if !strings.Contains(out, "# HELP server_requests HTTP requests served, every endpoint.\n# TYPE server_requests counter\n") {
		t.Fatalf("metrics prom missing catalog HELP line:\n%s", out)
	}
}

// TestRecordDoesNotAllocate pins the per-request recording cost: the
// one record path writes every cumulative and windowed series without
// allocating.
func TestRecordDoesNotAllocate(t *testing.T) {
	s := New(Config{})
	et := s.tel.eps["estimate"]
	if got := testing.AllocsPerRun(1000, func() {
		s.tel.record(et, http.StatusOK, time.Millisecond, "hit", false)
	}); got != 0 {
		t.Fatalf("record allocates %.1f objects per request, want 0", got)
	}
}

// TestSLOEventsMatchComputeRequests checks, within one /v1/status body,
// that the 5m SLO point counts exactly the computation endpoints'
// windowed requests, and that polling endpoints stay out of it.
func TestSLOEventsMatchComputeRequests(t *testing.T) {
	h := New(Config{}).Handler()
	est := map[string]any{"circuit": "cla8", "estimator": "propagated"}
	doJSON(t, h, http.MethodPost, "/v1/estimate", est)
	doJSON(t, h, http.MethodPost, "/v1/estimate", est)
	doJSON(t, h, http.MethodPost, "/v1/estimate", map[string]any{"circuit": "nope"})
	doJSON(t, h, http.MethodPost, "/v1/estimate:batch", map[string]any{"items": []any{est, est}})
	doJSON(t, h, http.MethodGet, "/healthz", nil)
	doJSON(t, h, http.MethodGet, "/v1/circuits", nil)
	rec := doJSON(t, h, http.MethodGet, "/v1/status", nil)
	var st StatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	var compute int64
	for _, e := range st.Endpoints {
		if sloEndpoint(e.Endpoint) {
			compute += e.Requests
		}
	}
	if compute != 4 {
		t.Fatalf("computation endpoints saw %d windowed requests, want 4: %s", compute, rec.Body.Bytes())
	}
	for _, v := range st.Objectives {
		if v.Burn[0].Events != compute || v.Burn[1].Events != compute {
			t.Errorf("%s: 5m/1h events %d/%d, want %d", v.Objective, v.Burn[0].Events, v.Burn[1].Events, compute)
		}
	}
}

// TestInflightGaugesDrain drives concurrent requests, some of them
// computations holding a worker slot, and checks that the server and
// per-endpoint in-flight gauges read 0 once every request has finished.
func TestInflightGaugesDrain(t *testing.T) {
	s := New(Config{Workers: 2})
	h := s.Handler()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch (w + i) % 3 {
				case 0:
					doJSON(t, h, http.MethodPost, "/v1/estimate", map[string]any{"circuit": "cla8", "estimator": "propagated", "seed": i})
				case 1:
					doJSON(t, h, http.MethodGet, "/healthz", nil)
				default:
					doJSON(t, h, http.MethodGet, "/v1/status", nil)
				}
			}
		}(w)
	}
	wg.Wait()
	// The gauges are process-wide; give work another test left running a
	// moment to finish.
	waitUntil(t, 10*time.Second, func() bool {
		drained := s.inflight.Value() == 0
		for _, ep := range endpoints {
			drained = drained && s.tel.eps[ep].inflight.Value() == 0
		}
		return drained
	})
}

// TestConcurrentFirstRequests hammers a freshly built server from many
// goroutines with a mix of endpoints — under -race this audits the
// single-construction contract of the telemetry maps (no lazy
// registration racing on first requests).
func TestConcurrentFirstRequests(t *testing.T) {
	h := New(Config{Workers: 4}).Handler()
	paths := []struct {
		method, path string
		body         any
	}{
		{http.MethodGet, "/healthz", nil},
		{http.MethodGet, "/v1/status", nil},
		{http.MethodGet, "/v1/circuits", nil},
		{http.MethodGet, "/metrics?format=prom", nil},
		{http.MethodPost, "/v1/estimate", map[string]any{"circuit": "cla8", "estimator": "propagated"}},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				p := paths[(w+i)%len(paths)]
				var body *bytes.Reader
				if p.body != nil {
					b, _ := json.Marshal(p.body)
					body = bytes.NewReader(b)
				} else {
					body = bytes.NewReader(nil)
				}
				req := httptest.NewRequest(p.method, p.path, body)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s %s -> %d", p.method, p.path, rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	rec := doJSON(t, h, http.MethodGet, "/v1/status", nil)
	var st StatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range st.Endpoints {
		total += e.Requests
	}
	if total < 8*30 {
		t.Fatalf("windowed totals lost requests: %d < %d\n%s", total, 8*30, rec.Body.String())
	}
}

// BenchmarkMiddleware measures the full instrument+handler round trip
// on the cheapest endpoint: the serving-telemetry overhead every
// request pays, without and with the access log lpserverd and lpbench
// both write.
func BenchmarkMiddleware(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"no-log", Config{}},
		{"access-log", Config{AccessLog: io.Discard}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := New(bc.cfg).Handler()
			req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
			}
		})
	}
}
