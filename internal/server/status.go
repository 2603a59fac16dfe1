package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/obsv/slo"
	"repro/internal/obsv/window"
)

// telemetry is the serving instrumentation: the request counters, one
// endpointTelemetry per endpoint label and the SLO trackers. New builds
// all of it before the server serves anything, so the request path
// reads it without locks, registry lookups or first-request
// allocations.
type telemetry struct {
	eps map[string]*endpointTelemetry

	requests     *obsv.Counter // server.requests
	errors       *obsv.Counter // server.errors: status >= 500
	clientAborts *obsv.Counter // server.client_aborts: status 499

	// SLO trackers, fed only by the computation endpoints (sloEndpoint)
	// so that metrics/healthz polling can never dilute an error burst
	// out of the budget math.
	availability *slo.Tracker
	latency      *slo.Tracker
	degraded     *slo.Tracker
}

// endpointTelemetry is one endpoint's instruments: the cumulative
// registry series behind /metrics and the rolling windows behind
// /v1/status, keyed by the same label.
type endpointTelemetry struct {
	latency  *obsv.Histogram // server.http.<ep>.latency_us
	queue    *obsv.Histogram // server.http.<ep>.queue_us
	inflight *obsv.Gauge     // server.http.<ep>.inflight
	n        atomic.Int64    // backs the inflight gauge
	slo      bool            // requests feed the SLO trackers

	requests      *window.Counter
	errors        *window.Counter
	degraded      *window.Counter
	cacheHits     *window.Counter
	cacheMiss     *window.Counter
	recentLatency *window.Histogram
}

// The rolling horizons: /v1/status reports over the short window, which
// is also the fast SLO horizon; the long window is the slow, sustained
// one. statusBuckets is the short window's ring resolution (a 5m window
// advances in 10s steps). A request at least latencyThreshold slow is bad
// for the latency objective.
const (
	shortWindow, shortLabel = 5 * time.Minute, "5m"
	longWindow, longLabel   = time.Hour, "1h"
	statusBuckets           = 30
	latencyThreshold        = 2 * time.Second
)

func newTelemetry(cfg Config, reg *obsv.Registry) *telemetry {
	t := &telemetry{
		eps:          make(map[string]*endpointTelemetry, len(endpoints)),
		requests:     reg.Counter("server.requests"),
		errors:       reg.Counter("server.errors"),
		clientAborts: reg.Counter("server.client_aborts"),
	}
	span, clock := shortWindow, cfg.Clock
	for _, ep := range endpoints {
		t.eps[ep] = &endpointTelemetry{
			latency:       reg.Histogram("server.http." + ep + ".latency_us"),
			queue:         reg.Histogram("server.http." + ep + ".queue_us"),
			inflight:      reg.Gauge("server.http." + ep + ".inflight"),
			slo:           sloEndpoint(ep),
			requests:      window.NewCounter(span, statusBuckets, clock),
			errors:        window.NewCounter(span, statusBuckets, clock),
			degraded:      window.NewCounter(span, statusBuckets, clock),
			cacheHits:     window.NewCounter(span, statusBuckets, clock),
			cacheMiss:     window.NewCounter(span, statusBuckets, clock),
			recentLatency: window.NewHistogram(span, statusBuckets, clock),
		}
	}
	horizons := []slo.Horizon{
		{Label: shortLabel, Span: shortWindow, Buckets: statusBuckets},
		{Label: longLabel, Span: longWindow, Buckets: statusBuckets * 2},
	}
	t.availability = slo.NewTracker(slo.Objective{Name: "availability", Budget: 0.001}, clock, horizons)
	t.latency = slo.NewTracker(slo.Objective{Name: "latency", Budget: 0.05}, clock, horizons)
	// lploadgen intentionally degrades a slice of its traffic via tiny
	// BDD budgets, so the degraded objective's budget is generous: it
	// exists to catch "everything suddenly degrades", not normal load.
	t.degraded = slo.NewTracker(slo.Objective{Name: "degraded", Budget: 0.5}, clock, horizons)
	return t
}

// sloEndpoint reports whether an endpoint label's requests feed the SLO
// trackers: the ones that run real computations.
func sloEndpoint(ep string) bool {
	return ep == "estimate" || ep == "batch" || ep == "flow" || ep == "experiment"
}

// record is the one record path for a finished request: every
// cumulative and windowed series a request touches is written here,
// without allocating. A server error is status >= 500 everywhere —
// server.errors, the windowed errors and the availability SLO — and a
// client abort (499) is counted apart from it.
func (t *telemetry) record(et *endpointTelemetry, status int, elapsed time.Duration, cache string, degraded bool) {
	us := elapsed.Microseconds()
	serverError := status >= 500
	t.requests.Inc()
	et.requests.Inc()
	et.latency.Observe(us)
	et.recentLatency.Observe(us)
	switch {
	case serverError:
		t.errors.Inc()
		et.errors.Inc()
	case status == statusClientClosedRequest:
		t.clientAborts.Inc()
	}
	if degraded {
		et.degraded.Inc()
	}
	switch cache {
	case "hit", "coalesced":
		// Coalesced followers count as hits: from the capacity planner's
		// seat both mean "served without a computation of its own".
		et.cacheHits.Inc()
	case "miss":
		et.cacheMiss.Inc()
	}
	if et.slo {
		t.availability.Observe(serverError)
		t.latency.Observe(elapsed >= latencyThreshold)
		t.degraded.Observe(degraded)
	}
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
	Objectives []slo.Verdict    `json:"objectives"`
	Endpoints  []EndpointStatus `json:"endpoints"`
}

// statusSnapshot assembles the status report from the rolling
// windows.
func (s *Server) statusSnapshot() StatusResponse {
	t := s.tel
	st := StatusResponse{
		Window:     shortLabel,
		NowNS:      s.cfg.Clock(),
		SLO:        slo.OK.String(),
		Objectives: []slo.Verdict{t.availability.Evaluate(), t.latency.Evaluate(), t.degraded.Evaluate()},
		Endpoints:  make([]EndpointStatus, 0, len(endpoints)),
	}
	for _, v := range st.Objectives {
		if v.State == "breach" || v.State == "warn" && st.SLO == "ok" {
			st.SLO = v.State
		}
	}
	for _, ep := range endpoints {
		et := t.eps[ep]
		e := EndpointStatus{
			Endpoint: ep,
			Requests: et.requests.Total(),
			RateRPS:  et.requests.Rate(),
			Errors:   et.errors.Total(),
			Inflight: et.n.Load(),
		}
		snap := et.recentLatency.Snapshot()
		e.P50US, e.P95US, e.P99US, e.MaxUS = snap.P50, snap.P95, snap.P99, snap.Max
		if e.Requests > 0 {
			e.ErrorFraction = float64(e.Errors) / float64(e.Requests)
			e.DegradedFraction = float64(et.degraded.Total()) / float64(e.Requests)
		}
		hits := et.cacheHits.Total()
		if lookups := hits + et.cacheMiss.Total(); lookups > 0 {
			e.CacheHitRatio = float64(hits) / float64(lookups)
		}
		st.Endpoints = append(st.Endpoints, e)
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
