package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
)

// Clock returns a monotonic time in nanoseconds. It must never go
// backwards; the zero point is arbitrary.
type Clock func() int64

var monotonicBase = time.Now()

// monotonic is the default Clock: nanoseconds since process start, read
// from the runtime's monotonic timer (immune to wall-clock steps).
func monotonic() int64 { return int64(time.Since(monotonicBase)) }

// The rolling horizons. /v1/status reports over the short one, which is
// also the fast SLO horizon; the long one is the slow, sustained SLO
// horizon. Each is a ring of fixed-width slots: the short ring advances
// in 10s steps, the long one in 60s steps. A request at least
// latencyThreshold slow is bad for the latency objective.
const (
	shortWindow, shortLabel, shortSlots = 5 * time.Minute, "5m", 30
	longWindow, longLabel, longSlots    = time.Hour, "1h", 60
	shortWidth                          = int64(shortWindow / shortSlots)
	longWidth                           = int64(longWindow / longSlots)
	latencyThreshold                    = 2 * time.Second
)

// latBuckets matches the obsv log2 layout: latency bucket i counts
// observations v with bits.Len64(v) == i, so bucket 0 holds exactly v == 0
// and bucket i covers [2^(i-1), 2^i-1]; the last bucket also takes
// everything larger.
const latBuckets = 32

// telemetry is the serving instrumentation: the request counters, one
// endpointTelemetry per endpoint label and the long-horizon SLO ring.
// New builds all of it before the server serves anything, so the request
// path reads it without locks, registry lookups or first-request
// allocations.
type telemetry struct {
	clock Clock
	eps   map[string]*endpointTelemetry

	requests     *obsv.Counter // server.requests
	errors       *obsv.Counter // server.errors: status >= 500
	clientAborts *obsv.Counter // server.client_aborts: status 499

	// hour is the 1h SLO horizon, fed only by the computation endpoints
	// (sloEndpoint) so that metrics/healthz polling can never dilute an
	// error burst out of the budget math.
	hour [longSlots]countSlot
}

// endpointTelemetry is one endpoint's instruments: the cumulative
// registry series behind /metrics and the 5m ring behind /v1/status and
// the short SLO horizon, keyed by the same label.
type endpointTelemetry struct {
	latency  *obsv.Histogram // server.http.<ep>.latency_us
	queue    *obsv.Histogram // server.http.<ep>.queue_us
	inflight *obsv.Gauge     // server.http.<ep>.inflight
	slo      bool            // requests feed the SLO horizons

	ring [shortSlots]endpointSlot
}

// countSlot is one ring slot of the series both horizons keep. A slot
// covers one epoch (now/width) and is tagged with it; the first writer
// of a newer epoch recycles it, so recording is a handful of atomic
// adds: no locks, no allocations, no background goroutine. Readers sum
// the slots whose epochs still fall inside the horizon. Under one
// goroutine the arithmetic is exact; under concurrency a write racing a
// recycle at an epoch boundary can land in the fresh epoch or, rarely,
// be dropped.
type countSlot struct {
	epoch                            atomic.Int64 // -1 until first written
	requests, errors, degraded, slow atomic.Int64
}

// endpointSlot adds the series only /v1/status reads to a countSlot: the
// cache dispositions and the log2 latency histogram, whose count is the
// slot's requests.
type endpointSlot struct {
	countSlot
	hits, misses, maxUS atomic.Int64
	lat                 [latBuckets]atomic.Int64
}

// claim tags the slot with epoch e. It reports true to the one writer
// that recycled the slot from an older epoch, after zeroing its counts.
func (s *countSlot) claim(e int64) bool {
	old := s.epoch.Load()
	if old == e || !s.epoch.CompareAndSwap(old, e) {
		return false
	}
	s.requests.Store(0)
	s.errors.Store(0)
	s.degraded.Store(0)
	s.slow.Store(0)
	return true
}

// claim tags the slot with epoch e, zeroing every series when it
// recycles the slot from an older epoch.
func (s *endpointSlot) claim(e int64) {
	if !s.countSlot.claim(e) {
		return
	}
	s.hits.Store(0)
	s.misses.Store(0)
	s.maxUS.Store(0)
	for i := range s.lat {
		s.lat[i].Store(0)
	}
}

func (s *countSlot) add(serverError, degraded, slow bool) {
	s.requests.Add(1)
	if serverError {
		s.errors.Add(1)
	}
	if degraded {
		s.degraded.Add(1)
	}
	if slow {
		s.slow.Add(1)
	}
}

// sumInto adds the slot to c when its epoch is one of the n newest at
// epoch cur.
func (s *countSlot) sumInto(c *eventCounts, cur, n int64) bool {
	if e := s.epoch.Load(); e < 0 || cur-e >= n {
		return false
	}
	c.requests += s.requests.Load()
	c.errors += s.errors.Load()
	c.degraded += s.degraded.Load()
	c.slow += s.slow.Load()
	return true
}

// eventCounts are a horizon's totals over its live slots.
type eventCounts struct{ requests, errors, degraded, slow int64 }

func (c *eventCounts) add(o eventCounts) {
	c.requests += o.requests
	c.errors += o.errors
	c.degraded += o.degraded
	c.slow += o.slow
}

// endpointWindow is one endpoint's short-horizon totals.
type endpointWindow struct {
	eventCounts
	hits, misses, maxUS int64
	lat                 [latBuckets]int64
}

func newTelemetry(cfg Config, reg *obsv.Registry) *telemetry {
	t := &telemetry{
		clock:        cfg.Clock,
		eps:          make(map[string]*endpointTelemetry, len(endpoints)),
		requests:     reg.Counter("server.requests"),
		errors:       reg.Counter("server.errors"),
		clientAborts: reg.Counter("server.client_aborts"),
	}
	for i := range t.hour {
		t.hour[i].epoch.Store(-1)
	}
	for _, ep := range endpoints {
		et := &endpointTelemetry{
			latency:  reg.Histogram("server.http." + ep + ".latency_us"),
			queue:    reg.Histogram("server.http." + ep + ".queue_us"),
			inflight: reg.Gauge("server.http." + ep + ".inflight"),
			slo:      sloEndpoint(ep),
		}
		for i := range et.ring {
			et.ring[i].epoch.Store(-1)
		}
		t.eps[ep] = et
	}
	return t
}

// sloEndpoint reports whether an endpoint label's requests feed the SLO
// horizons: the ones that run real computations.
func sloEndpoint(ep string) bool {
	return ep == "estimate" || ep == "batch" || ep == "flow" || ep == "experiment"
}

// record is the one record path for a finished request: it reads the
// clock once and writes every cumulative series and one slot per
// horizon, without allocating. A server error is status >= 500
// everywhere — server.errors, the windowed errors and the availability
// SLO — and a client abort (499) is counted apart from it.
func (t *telemetry) record(et *endpointTelemetry, status int, elapsed time.Duration, cache string, degraded bool) {
	us := max(elapsed.Microseconds(), 0)
	serverError, slow := status >= 500, elapsed >= latencyThreshold
	t.requests.Inc()
	et.latency.Observe(us)
	switch {
	case serverError:
		t.errors.Inc()
	case status == statusClientClosedRequest:
		t.clientAborts.Inc()
	}

	now := t.clock()
	e := now / shortWidth
	s := &et.ring[e%shortSlots]
	s.claim(e)
	s.add(serverError, degraded, slow)
	switch cache {
	case "hit", "coalesced":
		// Coalesced followers count as hits: from the capacity planner's
		// seat both mean "served without a computation of its own".
		s.hits.Add(1)
	case "miss":
		s.misses.Add(1)
	}
	for m := s.maxUS.Load(); us > m; m = s.maxUS.Load() {
		if s.maxUS.CompareAndSwap(m, us) {
			break
		}
	}
	s.lat[min(bits.Len64(uint64(us)), latBuckets-1)].Add(1)

	if et.slo {
		e := now / longWidth
		h := &t.hour[e%longSlots]
		h.claim(e)
		h.add(serverError, degraded, slow)
	}
}

// window sums the endpoint's live short-horizon slots at time now.
func (et *endpointTelemetry) window(now int64) endpointWindow {
	var w endpointWindow
	for i := range et.ring {
		s := &et.ring[i]
		if !s.sumInto(&w.eventCounts, now/shortWidth, shortSlots) {
			continue
		}
		w.hits += s.hits.Load()
		w.misses += s.misses.Load()
		w.maxUS = max(w.maxUS, s.maxUS.Load())
		for b := range s.lat {
			w.lat[b] += s.lat[b].Load()
		}
	}
	return w
}

// percentile is the nearest-rank q-percentile of a window's latency
// histogram, quantized up to its bucket's upper bound (0, 1, 3, 7, ...:
// the le bounds of the Prometheus exposition). It is 0 for an empty
// window.
func (w *endpointWindow) percentile(q float64) int64 {
	if w.requests == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(float64(w.requests)*q)), 1), w.requests)
	var cum int64
	for i, n := range w.lat {
		if cum += n; cum >= rank {
			return 1<<i - 1
		}
	}
	return 1<<(latBuckets-1) - 1
}

// The burn-rate policy. An objective's burn on a horizon is its bad
// fraction divided by its budget: burn 1 consumes the budget exactly as
// fast as the objective allows, burn 10 spends a whole budget period in
// a tenth of the time. A verdict escalates only when every horizon burns
// past a threshold (warnBurn, breachBurn): the short horizon proves the
// problem is happening now, the long one that it is sustained. It
// recovers as soon as the short horizon drains. A horizon with fewer
// than minEvents events reads burn 0, so a fresh process is ok.
const (
	warnBurn   = 1
	breachBurn = 10
	minEvents  = 1
)

// BurnPoint is one horizon's contribution to a verdict.
type BurnPoint struct {
	Horizon     string  `json:"horizon"`
	Events      int64   `json:"events"`
	Bad         int64   `json:"bad"`
	BadFraction float64 `json:"bad_fraction"`
	Burn        float64 `json:"burn"`
}

// Verdict is the evaluated state of one objective: "ok", "warn" or
// "breach".
type Verdict struct {
	Objective string      `json:"objective"`
	Budget    float64     `json:"budget"`
	State     string      `json:"state"`
	Burn      []BurnPoint `json:"burn"`
}

// burnVerdict evaluates one objective, whose allowed bad-event fraction
// is budget, over its horizons' points, each carrying its label, events
// and bad events.
func burnVerdict(objective string, budget float64, points []BurnPoint) Verdict {
	minBurn := math.Inf(1)
	for i := range points {
		p := &points[i]
		if p.Events >= minEvents {
			p.BadFraction = float64(p.Bad) / float64(p.Events)
			p.Burn = p.BadFraction / budget
		}
		minBurn = min(minBurn, p.Burn)
	}
	return Verdict{Objective: objective, Budget: budget, State: burnState(minBurn), Burn: points}
}

// burnState folds the lowest burn across a verdict's horizons into its
// state.
func burnState(minBurn float64) string {
	switch {
	case minBurn >= breachBurn:
		return "breach"
	case minBurn >= warnBurn:
		return "warn"
	}
	return "ok"
}

// EndpointStatus is one endpoint's rolling-window view in the status
// report. Field order is part of the wire contract: CI greps for
// `"endpoint":"estimate","requests":N` adjacency.
type EndpointStatus struct {
	Endpoint         string  `json:"endpoint"`
	Requests         int64   `json:"requests"`
	RateRPS          float64 `json:"rate_rps"`
	Errors           int64   `json:"errors"`
	ErrorFraction    float64 `json:"error_fraction"`
	DegradedFraction float64 `json:"degraded_fraction"`
	CacheHitRatio    float64 `json:"cache_hit_ratio"`
	Inflight         int64   `json:"inflight"`
	P50US            int64   `json:"p50_us"`
	P95US            int64   `json:"p95_us"`
	P99US            int64   `json:"p99_us"`
	MaxUS            int64   `json:"max_us"`
}

// StatusResponse is the GET /v1/status body: the rolling-window
// serving picture plus the SLO verdicts. Everything in it derives
// from the injectable clock and the request history, so under a fake
// clock the body is byte-deterministic (struct fields marshal in
// declaration order; there are no maps).
type StatusResponse struct {
	Window     string           `json:"window"`
	NowNS      int64            `json:"now_ns"`
	SLO        string           `json:"slo"`
	Objectives []Verdict        `json:"objectives"`
	Endpoints  []EndpointStatus `json:"endpoints"`
}

// statusSnapshot assembles the status report at one clock reading: the
// endpoint rows from each endpoint's ring, the SLO verdicts' 5m point
// from the sum of the computation endpoints' rings and their 1h point
// from the long ring.
func (s *Server) statusSnapshot() StatusResponse {
	t := s.tel
	now := t.clock()
	st := StatusResponse{Window: shortLabel, NowNS: now, SLO: "ok", Endpoints: make([]EndpointStatus, 0, len(endpoints))}
	var short, long eventCounts
	for _, ep := range endpoints {
		et := t.eps[ep]
		w := et.window(now)
		if et.slo {
			short.add(w.eventCounts)
		}
		e := EndpointStatus{
			Endpoint: ep,
			Requests: w.requests,
			RateRPS:  float64(w.requests) / shortWindow.Seconds(),
			Errors:   w.errors,
			Inflight: int64(et.inflight.Value()),
			P50US:    w.percentile(0.50),
			P95US:    w.percentile(0.95),
			P99US:    w.percentile(0.99),
			MaxUS:    w.maxUS,
		}
		if e.Requests > 0 {
			e.ErrorFraction = float64(e.Errors) / float64(e.Requests)
			e.DegradedFraction = float64(w.degraded) / float64(e.Requests)
		}
		if lookups := w.hits + w.misses; lookups > 0 {
			e.CacheHitRatio = float64(w.hits) / float64(lookups)
		}
		st.Endpoints = append(st.Endpoints, e)
	}
	for i := range t.hour {
		t.hour[i].sumInto(&long, now/longWidth, longSlots)
	}
	points := func(shortBad, longBad int64) []BurnPoint {
		return []BurnPoint{
			{Horizon: shortLabel, Events: short.requests, Bad: shortBad},
			{Horizon: longLabel, Events: long.requests, Bad: longBad},
		}
	}
	st.Objectives = []Verdict{
		burnVerdict("availability", 0.001, points(short.errors, long.errors)),
		burnVerdict("latency", 0.05, points(short.slow, long.slow)),
		// An exact request whose BDD budget trips degrades to Monte Carlo
		// by design, and budgeted exact requests are normal traffic, so
		// the degraded objective's budget is generous: it exists to catch
		// "everything suddenly degrades", not normal load.
		burnVerdict("degraded", 0.5, points(short.degraded, long.degraded)),
	}
	for _, v := range st.Objectives {
		if v.State == "breach" || v.State == "warn" && st.SLO == "ok" {
			st.SLO = v.State
		}
	}
	return st
}

// handleStatus serves GET /v1/status: the JSON status report, or with
// ?format=prom just the windowed/SLO series in Prometheus text form
// (the same rows /metrics?format=prom appends after the registry).
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.statusSnapshot()
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeStatusProm(w, st)
		return
	}
	body, err := json.Marshal(st)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// statusPromHeader writes the HELP/TYPE pair for one windowed status
// family, sourcing help text from the obsv metric catalog so the
// catalog stays the single source of truth.
func statusPromHeader(w io.Writer, family, rawName string) {
	if mi, ok := obsv.LookupMetricInfo(rawName); ok {
		fmt.Fprintf(w, "# HELP %s %s\n", family, mi.Help)
	}
	fmt.Fprintf(w, "# TYPE %s gauge\n", family)
}

// writeStatusProm renders a status snapshot as Prometheus gauges with
// endpoint / objective / horizon / quantile labels. All windowed
// series are gauges: they describe the window, not a monotone total.
func writeStatusProm(w io.Writer, st StatusResponse) {
	statusPromHeader(w, "server_window_requests", "server.window.requests")
	for _, e := range st.Endpoints {
		fmt.Fprintf(w, "server_window_requests{endpoint=%q} %d\n", e.Endpoint, e.Requests)
	}
	statusPromHeader(w, "server_window_request_rate", "server.window.request_rate")
	for _, e := range st.Endpoints {
		fmt.Fprintf(w, "server_window_request_rate{endpoint=%q} %g\n", e.Endpoint, e.RateRPS)
	}
	statusPromHeader(w, "server_window_errors", "server.window.errors")
	for _, e := range st.Endpoints {
		fmt.Fprintf(w, "server_window_errors{endpoint=%q} %d\n", e.Endpoint, e.Errors)
	}
	statusPromHeader(w, "server_window_latency_us", "server.window.latency_us")
	for _, e := range st.Endpoints {
		fmt.Fprintf(w, "server_window_latency_us{endpoint=%q,quantile=\"0.5\"} %d\n", e.Endpoint, e.P50US)
		fmt.Fprintf(w, "server_window_latency_us{endpoint=%q,quantile=\"0.95\"} %d\n", e.Endpoint, e.P95US)
		fmt.Fprintf(w, "server_window_latency_us{endpoint=%q,quantile=\"0.99\"} %d\n", e.Endpoint, e.P99US)
	}
	statusPromHeader(w, "server_window_degraded_fraction", "server.window.degraded_fraction")
	for _, e := range st.Endpoints {
		fmt.Fprintf(w, "server_window_degraded_fraction{endpoint=%q} %g\n", e.Endpoint, e.DegradedFraction)
	}
	statusPromHeader(w, "server_window_cache_hit_ratio", "server.window.cache_hit_ratio")
	for _, e := range st.Endpoints {
		fmt.Fprintf(w, "server_window_cache_hit_ratio{endpoint=%q} %g\n", e.Endpoint, e.CacheHitRatio)
	}
	statusPromHeader(w, "server_slo_burn", "server.slo.burn")
	for _, v := range st.Objectives {
		for _, bp := range v.Burn {
			fmt.Fprintf(w, "server_slo_burn{objective=%q,horizon=%q} %g\n", v.Objective, bp.Horizon, bp.Burn)
		}
	}
	statusPromHeader(w, "server_slo_state", "server.slo.state")
	for _, v := range st.Objectives {
		fmt.Fprintf(w, "server_slo_state{objective=%q} %d\n", v.Objective, stateValue(v.State))
	}
}

func stateValue(state string) int {
	switch state {
	case "warn":
		return 1
	case "breach":
		return 2
	}
	return 0
}
