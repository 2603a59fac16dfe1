package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func sampleStatus() server.StatusResponse {
	return server.StatusResponse{
		Window: "5m",
		NowNS:  int64(90 * time.Second),
		SLO:    "warn",
		Objectives: []server.Verdict{
			{Objective: "availability", Budget: 0.001, State: "warn", Burn: []server.BurnPoint{
				{Horizon: "5m", Events: 100, Bad: 1, BadFraction: 0.01, Burn: 10},
				{Horizon: "1h", Events: 400, Bad: 1, BadFraction: 0.0025, Burn: 2.5},
			}},
			{Objective: "latency", Budget: 0.05, State: "ok", Burn: []server.BurnPoint{
				{Horizon: "5m", Events: 100}, {Horizon: "1h", Events: 400},
			}},
		},
		Endpoints: []server.EndpointStatus{
			{Endpoint: "estimate", Requests: 100, RateRPS: 0.33, Errors: 1,
				ErrorFraction: 0.01, DegradedFraction: 0.125, CacheHitRatio: 0.5,
				Inflight: 2, P50US: 511, P95US: 2047, P99US: 4095, MaxUS: 3800},
			{Endpoint: "healthz", Requests: 9, RateRPS: 0.03},
		},
	}
}

// TestRenderDeterministicTable pins the dashboard layout: header line,
// objective rows with per-horizon burns, and the endpoint table.
func TestRenderDeterministicTable(t *testing.T) {
	out := render(sampleStatus())
	if out != render(sampleStatus()) {
		t.Fatal("render is not deterministic")
	}
	for _, want := range []string{
		"lpserverd status   slo: warn   window: 5m   uptime: 1m30s",
		"OBJECTIVE",
		"burn(5m)",
		"burn(1h)",
		"ENDPOINT",
		"P99us",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// One full objective row and one full endpoint row, exactly.
	if !strings.Contains(out, "availability   warn           10.00         2.50") {
		t.Errorf("objective row wrong:\n%s", out)
	}
	if !strings.Contains(out, "estimate        100     0.33    1.0   12.5    50.0     2      511     2047     4095     3800") {
		t.Errorf("estimate row wrong:\n%s", out)
	}
	// Every endpoint present, one line each.
	if strings.Count(out, "\nhealthz") != 1 {
		t.Errorf("healthz row missing:\n%s", out)
	}
}

// TestRenderEmptyStatus must not panic or emit an objectives block.
func TestRenderEmptyStatus(t *testing.T) {
	out := render(server.StatusResponse{Window: "5m", SLO: "ok"})
	if !strings.Contains(out, "slo: ok") || strings.Contains(out, "OBJECTIVE") {
		t.Errorf("empty render wrong:\n%s", out)
	}
}

// TestFetchStatusAgainstLiveHandler round-trips a real server handler.
func TestFetchStatusAgainstLiveHandler(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	st, err := fetchStatus(&http.Client{Timeout: 5 * time.Second}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.SLO != "ok" || len(st.Endpoints) == 0 {
		t.Fatalf("unexpected status: %+v", st)
	}
	out := render(st)
	if !strings.Contains(out, "ENDPOINT") || !strings.Contains(out, "estimate") {
		t.Fatalf("rendered table missing endpoints:\n%s", out)
	}
}

func TestFetchStatusErrors(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer bad.Close()
	if _, err := fetchStatus(&http.Client{}, bad.URL); err == nil {
		t.Fatal("expected error from non-200 status")
	}
	if _, err := fetchStatus(&http.Client{Timeout: 200 * time.Millisecond}, "http://127.0.0.1:1"); err == nil {
		t.Fatal("expected transport error")
	}
}
