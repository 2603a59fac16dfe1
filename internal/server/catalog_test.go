package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/logic"
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

// driveEveryEndpoint exercises every endpoint of a fresh test server and
// returns it: each estimator (plus a budget-degraded exact, a sequential
// upload and an exact estimate the sifting retry rescues), a batch with a
// failing item, every standard flow, sync and async incremental flows
// with a job poll, an experiment and the introspection routes. Two more
// servers dump slow-request traces, one into a directory it cannot
// create.
func driveEveryEndpoint(t *testing.T) *httptest.Server {
	t.Helper()
	ts := newTestServer(t, Config{})
	mustPost := func(path string, v any) {
		t.Helper()
		if status, body, _ := post(t, ts, path, v); status != http.StatusOK {
			t.Fatalf("POST %s: status %d body %s", path, status, body)
		}
	}
	const toggle = ".model toggle\n.inputs d\n.outputs q\n.latch d q 0\n.end\n"
	for _, est := range estimators {
		mustPost("/v1/estimate", EstimateRequest{circuitRef: circuitRef{Circuit: "cla8"}, Estimator: est})
		if est != "packed" {
			mustPost("/v1/estimate", EstimateRequest{circuitRef: circuitRef{BLIF: toggle}, Estimator: est})
		}
	}
	mustPost("/v1/estimate", EstimateRequest{circuitRef: circuitRef{Circuit: "mult6"}, Estimator: "exact", BDDMaxNodes: 16})
	mustPost("/v1/estimate", EstimateRequest{circuitRef: circuitRef{BLIF: splitEqualityBLIF(t, 12)}, Estimator: "exact", BDDMaxNodes: 2000})
	mustPost("/v1/estimate:batch", BatchRequest{Items: []EstimateRequest{
		{circuitRef: circuitRef{Circuit: "mult4"}},
		{circuitRef: circuitRef{Circuit: "mult4"}},
		{circuitRef: circuitRef{Circuit: "dec5"}, Estimator: "propagated"},
		{circuitRef: circuitRef{Circuit: "nosuch"}},
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
	for _, path := range []string{"/v1/experiments/E1", "/v1/circuits", "/v1/status", "/healthz", "/metrics?format=prom"} {
		mustGet(t, ts, path)
	}

	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{t.TempDir(), filepath.Join(notDir, "traces")} {
		traced := newTestServer(t, Config{TraceRequests: true, SlowTraceThreshold: time.Nanosecond, SlowTraceDir: dir})
		mustGet(t, traced, "/healthz")
	}
	return ts
}

// splitEqualityBLIF is a circuit whose depth-first BDD variable order is
// exponential and whose sifted order is linear: one output ORs every
// a_i, the other ANDs the chain of a_i XNOR b_i.
func splitEqualityBLIF(t *testing.T, n int) string {
	t.Helper()
	nw := logic.New(fmt.Sprintf("spliteq%d", n))
	as := make([]logic.NodeID, n)
	eq := logic.NodeID(-1)
	for i := range as {
		as[i] = nw.MustInput(fmt.Sprintf("a%d", i))
		x := nw.MustGate(fmt.Sprintf("x%d", i), logic.Xnor, as[i], nw.MustInput(fmt.Sprintf("b%d", i)))
		if i == 0 {
			eq = x
		} else {
			eq = nw.MustGate(fmt.Sprintf("eq%d", i), logic.And, eq, x)
		}
	}
	for _, o := range []logic.NodeID{nw.MustGate("any", logic.Or, as...), eq} {
		if err := nw.MarkOutput(o); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := logic.WriteBLIF(&b, nw); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// mustGet fetches path from ts and fails unless it answers 200.
func mustGet(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	status, body := getStatus(t, ts.URL+path)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d body %s", path, status, body)
	}
	return body
}

// exportedNames returns the registry names /metrics serves.
func exportedNames(t *testing.T, ts *httptest.Server) map[string]any {
	t.Helper()
	var exported map[string]any
	if err := json.Unmarshal(mustGet(t, ts, "/metrics"), &exported); err != nil {
		t.Fatal(err)
	}
	return exported
}

// TestServedMetricsAreCatalogued drives every endpoint, then fails on
// any /metrics name without a catalog row, so no served series can lack
// its HELP text.
func TestServedMetricsAreCatalogued(t *testing.T) {
	ts := driveEveryEndpoint(t)
	exported := exportedNames(t, ts)
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
	for _, name := range []string{"server.requests", "server.http.flow.latency_us", "lpflow.measure.reused", "lpflow.pass.strash.us", "flow.incr.measures",
		"power.exact.reordered", "server.batch.item_errors", "server.trace.slow_dumps", "server.trace.dump.errors"} {
		if _, ok := exported[name]; !ok {
			t.Errorf("/metrics lacks %s: the endpoints were not all driven", name)
		}
	}
}

// TestCatalogRowsAreEmitted fails on a catalog row that nothing emits:
// on a fresh registry it drives every endpoint as the test above does
// and runs the experiment suite, then requires every row to match a
// registry name /metrics serves or a family the Prometheus exposition
// declares (the windowed status rows are not registry metrics).
func TestCatalogRowsAreEmitted(t *testing.T) {
	obsv.Disable()
	ts := driveEveryEndpoint(t)
	for _, r := range experiments.RunAllCtx(context.Background(), experiments.All(), 0, 0) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
	}
	emitted := map[obsv.MetricInfo]bool{}
	for name := range exportedNames(t, ts) {
		if mi, ok := obsv.LookupMetricInfo(name); ok {
			emitted[mi] = true
		}
	}
	prom := string(mustGet(t, ts, "/metrics?format=prom"))
	for _, row := range obsv.CatalogNames() {
		mi, _ := obsv.LookupMetricInfo(strings.ReplaceAll(row, "*", "x"))
		if !emitted[mi] && !strings.Contains(prom, "# TYPE "+obsv.SanitizeProm(row)+" ") {
			t.Errorf("catalog row %q: nothing the endpoints or the experiment suite ran emits it", row)
		}
	}
}
