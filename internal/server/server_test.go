package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bdd"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// post sends a JSON body and returns status, body bytes and the X-Cache
// header.
func post(t *testing.T, ts *httptest.Server, path string, v any) (int, []byte, string) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header.Get("X-Cache")
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestEstimateBasicAndResultCache(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := EstimateRequest{circuitRef: circuitRef{Circuit: "mult4"}, Estimator: "exact"}
	status, body1, cache1 := post(t, ts, "/v1/estimate", req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body1)
	}
	if cache1 != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", cache1)
	}
	var resp EstimateResponse
	if err := json.Unmarshal(body1, &resp); err != nil {
		t.Fatalf("bad body %s: %v", body1, err)
	}
	if resp.Hash == "" || resp.Gates == 0 || resp.Power.Total <= 0 {
		t.Errorf("implausible response %+v", resp)
	}
	if resp.Estimator != "exact" || resp.Power.Degraded {
		t.Errorf("estimator %q degraded=%v, want clean exact", resp.Estimator, resp.Power.Degraded)
	}
	if len(resp.Top) == 0 {
		t.Error("no top consumers reported")
	}

	status, body2, cache2 := post(t, ts, "/v1/estimate", req)
	if status != http.StatusOK || cache2 != "hit" {
		t.Fatalf("repeat: status %d X-Cache %q, want 200 hit", status, cache2)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cached body differs from computed body")
	}
}

func TestEstimatorsAgreeOnProbabilisticPower(t *testing.T) {
	ts := newTestServer(t, Config{})
	totals := map[string]float64{}
	for _, est := range []string{"exact", "propagated", "packed"} {
		status, body, _ := post(t, ts, "/v1/estimate",
			EstimateRequest{circuitRef: circuitRef{Circuit: "par16"}, Estimator: est, Vectors: 4096})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d body %s", est, status, body)
		}
		var resp EstimateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		totals[est] = resp.Power.Total
	}
	// Parity trees have exactly-0.5 signal probabilities everywhere, so
	// propagation is exact and Monte Carlo should land close.
	if totals["exact"] != totals["propagated"] {
		t.Errorf("exact %v != propagated %v on par16", totals["exact"], totals["propagated"])
	}
	if ratio := totals["packed"] / totals["exact"]; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("packed/exact = %v, want within 10%%", ratio)
	}
}

func TestEstimateBLIFUpload(t *testing.T) {
	ts := newTestServer(t, Config{})
	blif := `.model toyand
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
11 1
.end
`
	status, body, _ := post(t, ts, "/v1/estimate",
		EstimateRequest{circuitRef: circuitRef{BLIF: blif}, Estimator: "exact"})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var resp EstimateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Circuit != "toyand" || resp.Gates == 0 {
		t.Errorf("got circuit %q gates %d, want toyand with gates > 0", resp.Circuit, resp.Gates)
	}
}

func TestEstimateValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	bad := func(name string, v any) {
		t.Helper()
		status, body, _ := post(t, ts, "/v1/estimate", v)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d (body %s), want 400", name, status, body)
		}
		if !bytes.Contains(body, []byte(`"error"`)) {
			t.Errorf("%s: error body %s lacks error field", name, body)
		}
	}
	p := 1.5
	bad("no circuit", EstimateRequest{})
	bad("both circuit and blif", EstimateRequest{circuitRef: circuitRef{Circuit: "mult4", BLIF: ".model x\n.end\n"}})
	bad("unknown circuit", EstimateRequest{circuitRef: circuitRef{Circuit: "warp-core"}})
	bad("unknown estimator", EstimateRequest{circuitRef: circuitRef{Circuit: "mult4"}, Estimator: "vibes"})
	bad("p1 out of range", EstimateRequest{circuitRef: circuitRef{Circuit: "mult4"}, P1: &p})
	bad("vectors too large", EstimateRequest{circuitRef: circuitRef{Circuit: "mult4"}, Estimator: "simulated", Vectors: maxVectors + 1})
	bad("malformed blif", EstimateRequest{circuitRef: circuitRef{BLIF: ".model broken\n.names a a a\n.end\n"}})

	// Unknown JSON fields are rejected, not silently ignored.
	resp, err := http.Post(ts.URL+"/v1/estimate", "application/json",
		strings.NewReader(`{"circuit":"mult4","estimatr":"exact"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("typo'd field: status = %d, want 400", resp.StatusCode)
	}

	// Wrong method routes to 405 via the Go 1.22 method patterns.
	getStatus, _ := get(t, ts, "/v1/estimate")
	if getStatus != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/estimate = %d, want 405", getStatus)
	}
}

func TestPackedRejectsSequential(t *testing.T) {
	ts := newTestServer(t, Config{})
	blif := `.model toggle
.inputs d
.outputs q
.latch d q 0
.end
`
	status, body, _ := post(t, ts, "/v1/estimate",
		EstimateRequest{circuitRef: circuitRef{BLIF: blif}, Estimator: "packed"})
	if status != http.StatusBadRequest {
		t.Fatalf("packed on sequential: status = %d (body %s), want 400", status, body)
	}
	// The exact estimator handles the same circuit fine (sequential
	// warm-up path).
	status, body, _ = post(t, ts, "/v1/estimate",
		EstimateRequest{circuitRef: circuitRef{BLIF: blif}, Estimator: "exact"})
	if status != http.StatusOK {
		t.Fatalf("exact on sequential: status = %d, body %s", status, body)
	}
	var resp EstimateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.FlipFlops != 1 {
		t.Errorf("flip_flops = %d, want 1", resp.FlipFlops)
	}
}

// TestFlowDoesNotMutateCachedNetwork is the cache-poisoning regression
// at the HTTP level: running a mutating flow must leave the shared cached
// network byte-for-byte equivalent for later estimates.
func TestFlowDoesNotMutateCachedNetwork(t *testing.T) {
	ts := newTestServer(t, Config{})

	// Prime the network cache, then mutate via a flow.
	before := EstimateRequest{circuitRef: circuitRef{Circuit: "radd8"}, Estimator: "exact"}
	status, bodyBefore, _ := post(t, ts, "/v1/estimate", before)
	if status != http.StatusOK {
		t.Fatalf("estimate: status %d body %s", status, bodyBefore)
	}
	status, flowBody, _ := post(t, ts, "/v1/flow",
		FlowRequest{circuitRef: circuitRef{Circuit: "radd8"}, Flow: "glitch"})
	if status != http.StatusOK {
		t.Fatalf("flow: status %d body %s", status, flowBody)
	}
	var frep FlowResponse
	if err := json.Unmarshal(flowBody, &frep); err != nil {
		t.Fatal(err)
	}
	if len(frep.Steps) != len(frep.Passes)+1 {
		t.Errorf("steps = %d for %d passes, want passes+1", len(frep.Steps), len(frep.Passes))
	}
	if frep.FinalHash == "" || frep.FinalHash == frep.Hash {
		t.Errorf("flow did not rewrite the clone: hash %q final %q", frep.Hash, frep.FinalHash)
	}
	if frep.SimPowerRatio <= 0 || frep.SimPowerRatio > 1.5 {
		t.Errorf("implausible sim power ratio %v", frep.SimPowerRatio)
	}

	// A post-flow estimate with options nothing used before (result-cache
	// miss) must be recomputed from the cached network — and match a
	// server that never ran the flow.
	probe := EstimateRequest{circuitRef: circuitRef{Circuit: "radd8"}, Estimator: "propagated", Vectors: 4242}
	_, gotBody, cache := post(t, ts, "/v1/estimate", probe)
	if cache != "miss" {
		t.Fatalf("probe was cache-%s, want a recomputation", cache)
	}
	fresh := newTestServer(t, Config{})
	_, wantBody, _ := post(t, fresh, "/v1/estimate", probe)
	if !bytes.Equal(gotBody, wantBody) {
		t.Errorf("flow mutated the cached network:\nafter flow: %s\nfresh:      %s", gotBody, wantBody)
	}
}

// TestBudgetTripDoesNotPoisonLaterRequests is the sticky-manager
// regression: a budget-degraded estimate must leave no state behind that
// degrades a later clean estimate of the same circuit.
func TestBudgetTripDoesNotPoisonLaterRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	tiny := EstimateRequest{circuitRef: circuitRef{Circuit: "cmp8"}, Estimator: "exact", BDDMaxNodes: 16}
	status, degradedBody, _ := post(t, ts, "/v1/estimate", tiny)
	if status != http.StatusOK {
		t.Fatalf("budgeted estimate: status %d body %s", status, degradedBody)
	}
	var degraded EstimateResponse
	if err := json.Unmarshal(degradedBody, &degraded); err != nil {
		t.Fatal(err)
	}
	if !degraded.Power.Degraded || degraded.Power.DegradeReason == "" {
		t.Fatalf("16-node budget on cmp8 should degrade, got %+v", degraded.Power)
	}

	clean := EstimateRequest{circuitRef: circuitRef{Circuit: "cmp8"}, Estimator: "exact"}
	status, gotBody, _ := post(t, ts, "/v1/estimate", clean)
	if status != http.StatusOK {
		t.Fatalf("clean estimate after budget trip: status %d body %s", status, gotBody)
	}
	var got EstimateResponse
	if err := json.Unmarshal(gotBody, &got); err != nil {
		t.Fatal(err)
	}
	if got.Power.Degraded {
		t.Error("clean estimate degraded after an earlier budget trip on the same path")
	}
	fresh := newTestServer(t, Config{})
	_, wantBody, _ := post(t, fresh, "/v1/estimate", clean)
	if !bytes.Equal(gotBody, wantBody) {
		t.Errorf("post-trip clean estimate differs from a never-tripped server:\ngot:  %s\nwant: %s", gotBody, wantBody)
	}
}

// TestNegativeLimitsRejected: a negative bdd_max_nodes, bdd_max_steps or
// timeout_ms is a 400 on every surface, instead of reading as "no limit"
// and bypassing the operator's default budget.
func TestNegativeLimitsRejected(t *testing.T) {
	ts := newTestServer(t, Config{DefaultBudget: bdd.Budget{MaxNodes: 16}})
	for _, tc := range []struct{ path, body string }{
		{"/v1/estimate", `{"circuit":"mult5","estimator":"exact","bdd_max_nodes":-1}`},
		{"/v1/estimate", `{"circuit":"mult5","estimator":"exact","bdd_max_steps":-1}`},
		{"/v1/estimate", `{"circuit":"mult5","estimator":"exact","timeout_ms":-1}`},
		{"/v1/flow", `{"circuit":"mult4","flow":"area","bdd_max_nodes":-1}`},
		{"/v1/flow", `{"circuit":"mult4","flow":"area","bdd_max_steps":-1}`},
		{"/v1/flow", `{"circuit":"mult4","flow":"area","timeout_ms":-1}`},
		{"/v1/estimate:batch", `{"items":[{"circuit":"mult5"}],"timeout_ms":-1}`},
	} {
		status, body, _ := post(t, ts, tc.path, json.RawMessage(tc.body))
		if status != http.StatusBadRequest || !bytes.Contains(body, []byte("negative")) {
			t.Errorf("%s %s: status %d body %s, want 400 naming the negative field", tc.path, tc.body, status, body)
		}
	}

	status, body, _ := post(t, ts, "/v1/estimate:batch", json.RawMessage(
		`{"items":[{"circuit":"mult5","bdd_max_nodes":-1},{"circuit":"mult5","bdd_max_steps":-1},{"circuit":"mult5","timeout_ms":-1}]}`))
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); status != http.StatusOK || err != nil {
		t.Fatalf("batch: status %d body %s (%v)", status, body, err)
	}
	for i, item := range batch.Items {
		if item.OK || item.Status != http.StatusBadRequest {
			t.Errorf("batch item %d: %+v, want a 400 item", i, item)
		}
	}

	// Without the fields the operator's 16-node budget applies.
	status, body, _ = post(t, ts, "/v1/estimate", json.RawMessage(`{"circuit":"mult5","estimator":"exact"}`))
	var est EstimateResponse
	if err := json.Unmarshal(body, &est); status != http.StatusOK || err != nil || !est.Power.Degraded {
		t.Errorf("default-budget estimate: status %d, degraded %v, want 200 degraded (%v)", status, est.Power.Degraded, err)
	}
}

func TestFlowValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, body, _ := post(t, ts, "/v1/flow",
		FlowRequest{circuitRef: circuitRef{Circuit: "radd8"}, Flow: "turbo"})
	if status != http.StatusBadRequest {
		t.Errorf("unknown flow: status = %d, want 400", status)
	}
	if !bytes.Contains(body, []byte("area")) {
		t.Errorf("error %s should list the valid flows", body)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a survey experiment table")
	}
	ts := newTestServer(t, Config{})
	status, body := get(t, ts, "/v1/experiments/E1")
	if status != http.StatusOK {
		t.Fatalf("E1: status %d body %s", status, body)
	}
	var resp struct {
		ID    string `json:"id"`
		Table struct {
			ID   string     `json:"id"`
			Rows [][]string `json:"rows"`
		} `json:"table"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != "E1" || resp.Table.ID != "E1" || len(resp.Table.Rows) == 0 {
		t.Errorf("implausible experiment payload %s", body)
	}
	// Second fetch is served from the result cache.
	resp2, err := http.Get(ts.URL + "/v1/experiments/E1")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat experiment fetch X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}

	status, _ = get(t, ts, "/v1/experiments/E999")
	if status != http.StatusNotFound {
		t.Errorf("unknown experiment: status = %d, want 404", status)
	}
}

func TestIntrospectionEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{})
	// Generate some traffic so the counters are nonzero.
	post(t, ts, "/v1/estimate", EstimateRequest{circuitRef: circuitRef{Circuit: "dec5"}, Estimator: "propagated"})

	status, body := get(t, ts, "/healthz")
	if status != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Errorf("healthz: %d %s", status, body)
	}

	status, body = get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var exported map[string]any
	if err := json.Unmarshal(body, &exported); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if n, _ := exported["server.requests"].(float64); n < 1 {
		t.Errorf("server.requests = %v, want >= 1", exported["server.requests"])
	}

	status, body = get(t, ts, "/v1/circuits")
	if status != http.StatusOK {
		t.Fatalf("circuits: status %d", status)
	}
	var listing struct {
		Circuits   []string `json:"circuits"`
		Flows      []string `json:"flows"`
		Estimators []string `json:"estimators"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Circuits) == 0 || len(listing.Flows) != 4 || len(listing.Estimators) != 4 {
		t.Errorf("implausible listing %s", body)
	}

	status, body = get(t, ts, "/debug/pprof/cmdline")
	if status != http.StatusOK {
		t.Errorf("pprof cmdline: status %d body %s", status, body)
	}
}

func TestRequestDeadlineMapsToTimeout(t *testing.T) {
	ts := newTestServer(t, Config{})
	// A full optimization flow over mult6 cannot finish inside 1 ms;
	// RunFlowCtx stops at the next pass boundary and the handler maps the
	// expired deadline to 504.
	status, body, _ := post(t, ts, "/v1/flow",
		FlowRequest{circuitRef: circuitRef{Circuit: "mult6"}, Flow: "lowpower", TimeoutMS: 1})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (body %s), want 504", status, body)
	}
	// The abort leaves nothing poisoned: estimating the same circuit
	// afterwards succeeds and is not degraded.
	status, body, _ = post(t, ts, "/v1/estimate",
		EstimateRequest{circuitRef: circuitRef{Circuit: "mult6"}, Estimator: "propagated"})
	if status != http.StatusOK {
		t.Fatalf("follow-up estimate: status %d body %s", status, body)
	}
}

func TestAcquireReturns503WhenPoolFullPastDeadline(t *testing.T) {
	s := New(Config{Workers: 1})
	s.sem <- struct{}{} // occupy the only worker slot
	defer func() { <-s.sem }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := s.acquire(ctx, "estimate")
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusServiceUnavailable {
		t.Fatalf("acquire on a full pool = %v, want a 503 apiError", err)
	}
}

func TestSelfCheckSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a mixed workload three times")
	}
	var lines []string
	logf := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	if err := SelfCheck(Config{}, 16, logf); err != nil {
		t.Fatalf("SelfCheck(16) failed: %v\nlog:\n%s", err, strings.Join(lines, "\n"))
	}
	if len(lines) == 0 || !strings.Contains(lines[len(lines)-1], "PASS") {
		t.Errorf("selfcheck log missing PASS line: %v", lines)
	}
}

// TestFlowIncremental: the incremental flag takes the fast measurement
// path, is part of the result-cache key, and its responses are
// byte-deterministic across servers (the serving cache contract).
func TestFlowIncremental(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := FlowRequest{circuitRef: circuitRef{Circuit: "mult4"}, Flow: "lowpower", Incremental: true}
	status, body, cache := post(t, ts, "/v1/flow", req)
	if status != http.StatusOK {
		t.Fatalf("incremental flow: status %d body %s", status, body)
	}
	if cache != "miss" {
		t.Fatalf("first incremental flow was cache-%s", cache)
	}
	var resp FlowResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for _, st := range resp.Steps {
		if st.Spurious != 0 {
			t.Errorf("incremental step %q reports spurious %v; zero-delay engines see no glitches", st.Label, st.Spurious)
		}
	}

	// Identical repeat: result-cache hit, byte-identical body.
	_, body2, cache2 := post(t, ts, "/v1/flow", req)
	if cache2 != "hit" {
		t.Errorf("repeat incremental flow was cache-%s, want hit", cache2)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached incremental flow body differs")
	}

	// Same request without the flag must not collide in the cache (the
	// snapshots mean different things).
	classic := req
	classic.Incremental = false
	_, body3, cache3 := post(t, ts, "/v1/flow", classic)
	if cache3 != "miss" {
		t.Errorf("classic flow after incremental was cache-%s, want miss", cache3)
	}
	if bytes.Equal(body, body3) {
		t.Error("incremental and classic flow bodies are identical; expected different measurement semantics")
	}

	// Cross-server determinism: a fresh server must produce the same bytes.
	fresh := newTestServer(t, Config{})
	_, body4, _ := post(t, fresh, "/v1/flow", req)
	if !bytes.Equal(body, body4) {
		t.Errorf("incremental flow is not byte-deterministic across servers:\n%s\nvs\n%s", body, body4)
	}
}
