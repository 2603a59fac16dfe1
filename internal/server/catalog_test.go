package server

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/obsv"
)

// getStatus fetches path and returns the status code and body.
func getStatus(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestServedMetricsAreCatalogued drives every endpoint — each estimator
// (plus a budget-degraded exact and a sequential upload), a batch, every
// standard flow, sync and async incremental flows with a job poll, an
// experiment and the introspection routes — then fails on any /metrics
// name without a catalog row, so no served series can lack its HELP text.
func TestServedMetricsAreCatalogued(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustPost := func(path string, v any) {
		t.Helper()
		if status, body, _ := post(t, ts, path, v); status != http.StatusOK {
			t.Fatalf("POST %s: status %d body %s", path, status, body)
		}
	}
	mustGet := func(path string) []byte {
		t.Helper()
		status, body := getStatus(t, ts.URL+path)
		if status != http.StatusOK {
			t.Fatalf("GET %s: status %d body %s", path, status, body)
		}
		return body
	}

	const toggle = ".model toggle\n.inputs d\n.outputs q\n.latch d q 0\n.end\n"
	for _, est := range estimators {
		mustPost("/v1/estimate", EstimateRequest{circuitRef: circuitRef{Circuit: "cla8"}, Estimator: est})
		if est != "packed" {
			mustPost("/v1/estimate", EstimateRequest{circuitRef: circuitRef{BLIF: toggle}, Estimator: est})
		}
	}
	mustPost("/v1/estimate", EstimateRequest{circuitRef: circuitRef{Circuit: "mult6"}, Estimator: "exact", BDDMaxNodes: 16})
	mustPost("/v1/estimate:batch", BatchRequest{Items: []EstimateRequest{
		{circuitRef: circuitRef{Circuit: "mult4"}},
		{circuitRef: circuitRef{Circuit: "mult4"}},
		{circuitRef: circuitRef{Circuit: "dec5"}, Estimator: "propagated"},
	}})
	for name := range core.StandardFlows() {
		mustPost("/v1/flow", FlowRequest{circuitRef: circuitRef{Circuit: "mult4"}, Flow: name})
	}
	incremental := FlowRequest{circuitRef: circuitRef{Circuit: "mult5"}, Flow: "lowpower", Incremental: true}
	mustPost("/v1/flow", incremental)
	incremental.Seed = 2
	if jr := awaitJob(t, ts.URL, submitAsync(t, ts.URL, incremental)); jr.State != "done" {
		t.Fatalf("async incremental flow ended %q: %s", jr.State, jr.Error)
	}
	mustGet("/v1/experiments/E1")
	mustGet("/v1/circuits")
	mustGet("/v1/status")
	mustGet("/healthz")
	mustGet("/metrics?format=prom")

	var exported map[string]any
	if err := json.Unmarshal(mustGet("/metrics"), &exported); err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name := range exported {
		if _, ok := obsv.LookupMetricInfo(name); !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("/metrics serves %d names with no catalog row: %v", len(missing), missing)
	}
	for _, name := range []string{"server.requests", "server.http.flow.latency_us", "lpflow.measure.reused", "flow.incr.measures"} {
		if _, ok := exported[name]; !ok {
			t.Errorf("/metrics lacks %s: the endpoints were not all driven", name)
		}
	}
}
