package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// doJSON drives the handler synchronously (no network, no goroutines) so
// access-log writes are complete when it returns.
func doJSON(t *testing.T, h http.Handler, method, path string, v any) *httptest.ResponseRecorder {
	t.Helper()
	var body *bytes.Reader
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	} else {
		body = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, body)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestTraceIDPresentUniqueAndLogged(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{TraceRequests: true, AccessLog: &logBuf})
	h := s.Handler()

	seen := map[string]bool{}
	req := EstimateRequest{circuitRef: circuitRef{Circuit: "dec5"}, Estimator: "propagated"}
	for i := 0; i < 5; i++ {
		rec := doJSON(t, h, http.MethodPost, "/v1/estimate", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, rec.Code, rec.Body.Bytes())
		}
		id := rec.Header().Get("X-Trace-Id")
		if id == "" {
			t.Fatalf("request %d: no X-Trace-Id header", i)
		}
		if seen[id] {
			t.Fatalf("request %d: trace ID %q reused", i, id)
		}
		seen[id] = true
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("access log has %d lines, want 5:\n%s", len(lines), logBuf.String())
	}
	logged := map[string]bool{}
	for i, line := range lines {
		var entry struct {
			Event     string `json:"event"`
			Method    string `json:"method"`
			Endpoint  string `json:"endpoint"`
			Status    int    `json:"status"`
			LatencyUS int64  `json:"latency_us"`
			Cache     string `json:"cache"`
			Trace     string `json:"trace"`
			TS        string `json:"ts"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("access-log line %d is not JSON: %q: %v", i, line, err)
		}
		if entry.Event != "access" || entry.Method != "POST" || entry.Endpoint != "estimate" || entry.Status != 200 {
			t.Errorf("line %d: implausible entry %+v", i, entry)
		}
		if entry.TS == "" {
			t.Errorf("line %d: missing ts", i)
		}
		if !seen[entry.Trace] {
			t.Errorf("line %d: trace %q was never returned in a header", i, entry.Trace)
		}
		logged[entry.Trace] = true
	}
	if len(logged) != 5 {
		t.Errorf("access log holds %d distinct trace IDs, want 5", len(logged))
	}
	// First request computes, later ones replay the result cache; both
	// dispositions must reach the log.
	if !strings.Contains(logBuf.String(), `"cache":"miss"`) || !strings.Contains(logBuf.String(), `"cache":"hit"`) {
		t.Errorf("access log lacks miss+hit dispositions:\n%s", logBuf.String())
	}
}

func TestTraceIDPresentWhenTracingDisabled(t *testing.T) {
	s := New(Config{})
	rec := doJSON(t, s.Handler(), http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	if rec.Header().Get("X-Trace-Id") == "" {
		t.Error("X-Trace-Id missing with tracing disabled; IDs must always be issued")
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	// Generate traffic so the per-endpoint histograms are populated.
	doJSON(t, h, http.MethodPost, "/v1/estimate",
		EstimateRequest{circuitRef: circuitRef{Circuit: "dec5"}, Estimator: "propagated"})

	rec := doJSON(t, h, http.MethodGet, "/metrics?format=prom", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics?format=prom: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition 0.0.4", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE server_requests counter",
		"server_requests ",
		"# TYPE server_http_estimate_latency_us histogram",
		`server_http_estimate_latency_us_bucket{le="+Inf"} `,
		// Servers share the process registry, so assert presence, not an
		// exact count (other tests may have sent estimates already).
		"server_http_estimate_latency_us_count ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom exposition missing %q:\n%s", want, body)
		}
	}
	if strings.ContainsAny(body, ".-") {
		for _, line := range strings.Split(body, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			name := line[:strings.IndexAny(line, " {")]
			if strings.ContainsAny(name, ".-") {
				t.Errorf("unsanitized metric name %q", name)
			}
		}
	}

	// The default JSON export still works.
	rec = doJSON(t, h, http.MethodGet, "/metrics", nil)
	var exported map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &exported); err != nil {
		t.Fatalf("plain /metrics no longer JSON: %v", err)
	}
}

func TestSlowTraceDump(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{TraceRequests: true, SlowTraceThreshold: time.Nanosecond, SlowTraceDir: dir})
	rec := doJSON(t, s.Handler(), http.MethodPost, "/v1/estimate",
		EstimateRequest{circuitRef: circuitRef{Circuit: "mult4"}, Estimator: "exact"})
	if rec.Code != http.StatusOK {
		t.Fatalf("estimate: %d %s", rec.Code, rec.Body.Bytes())
	}
	id := rec.Header().Get("X-Trace-Id")
	path := filepath.Join(dir, "trace_"+id+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("slow-trace dump not written: %v", err)
	}
	var dump struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("dump is not trace_event JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range dump.TraceEvents {
		names[ev.Name] = true
	}
	// The span tree must reach from the HTTP layer down into the engine.
	for _, want := range []string{"http estimate", "compute.estimate", "power.exact", "bdd.build"} {
		if !names[want] {
			t.Errorf("dump lacks span %q (have %v)", want, names)
		}
	}
}

// TestDecodeEncodeSpans checks that a traced /v1/estimate miss times
// its body decode, its response encode and its body write as children of
// the request's root span: decode before resolve, encode after
// compute.estimate, write last. A repeat is a cache hit that still times
// its body write.
func TestDecodeEncodeSpans(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{TraceRequests: true, SlowTraceThreshold: time.Nanosecond, SlowTraceDir: dir})
	req := EstimateRequest{circuitRef: circuitRef{Circuit: "cla8"}, Estimator: "propagated", Seed: 991}
	rec := doJSON(t, s.Handler(), http.MethodPost, "/v1/estimate", req)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("estimate: %d %s %s", rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes())
	}
	ids, parents := dumpedSpans(t, dir, rec.Header().Get("X-Trace-Id"))
	root := ids["http estimate"]
	for _, name := range []string{"decode", "resolve", "compute.estimate", "encode", "write"} {
		if ids[name] == 0 || parents[name] != root {
			t.Fatalf("span %q missing or not a child of the root (ids %v, parents %v)", name, ids, parents)
		}
	}
	if ids["decode"] > ids["resolve"] || ids["encode"] < ids["compute.estimate"] || ids["write"] < ids["encode"] {
		t.Fatalf("span order wrong: %v", ids)
	}

	hit := doJSON(t, s.Handler(), http.MethodPost, "/v1/estimate", req)
	if hit.Code != http.StatusOK || hit.Header().Get("X-Cache") != "hit" || hit.Body.String() != rec.Body.String() {
		t.Fatalf("repeat: %d %s %s", hit.Code, hit.Header().Get("X-Cache"), hit.Body.Bytes())
	}
	ids, parents = dumpedSpans(t, dir, hit.Header().Get("X-Trace-Id"))
	if ids["write"] == 0 || parents["write"] != ids["http estimate"] || ids["encode"] != 0 {
		t.Fatalf("hit: write span missing or not a child of the root, or an encode span (ids %v, parents %v)", ids, parents)
	}
}

// dumpedSpans reads the slow-trace dump of one request from dir and
// returns each span's ID and parent ID by name. Span IDs are handed out
// in start order.
func dumpedSpans(t *testing.T, dir, traceID string) (ids, parents map[string]uint64) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "trace_"+traceID+".json"))
	if err != nil {
		t.Fatalf("slow-trace dump not written: %v", err)
	}
	var dump struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				SpanID   uint64 `json:"span_id"`
				ParentID uint64 `json:"parent_id"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	ids, parents = map[string]uint64{}, map[string]uint64{}
	for _, ev := range dump.TraceEvents {
		ids[ev.Name], parents[ev.Name] = ev.Args.SpanID, ev.Args.ParentID
	}
	return ids, parents
}

// TestCoalescedFollowerSpans traces a leader and one coalesced follower.
// The follower's time waiting for the leader is a coalesce.wait span
// under its root, and it computes nothing; the leader stores its result
// under a cache.put span after encoding it.
func TestCoalescedFollowerSpans(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{TraceRequests: true, SlowTraceThreshold: time.Nanosecond, SlowTraceDir: dir, Workers: 1})
	h := s.Handler()
	s.sem <- struct{}{} // hold the only worker slot until the follower attaches
	leaders, hits := s.coalLeaders.Value(), s.coalHits.Value()
	traces := map[string]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	send := func() {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate",
			strings.NewReader(`{"circuit":"cla8","estimator":"propagated","seed":992}`)))
		if rec.Code != http.StatusOK {
			t.Errorf("estimate: %d %s", rec.Code, rec.Body.Bytes())
		}
		mu.Lock()
		traces[rec.Header().Get("X-Cache")] = rec.Header().Get("X-Trace-Id")
		mu.Unlock()
	}
	wg.Add(1)
	go send()
	waitUntil(t, 5*time.Second, func() bool { return s.coalLeaders.Value()-leaders == 1 })
	wg.Add(1)
	go send()
	waitUntil(t, 5*time.Second, func() bool { return s.coalHits.Value()-hits == 1 })
	<-s.sem
	wg.Wait()
	if traces["miss"] == "" || traces["coalesced"] == "" {
		t.Fatalf("want one miss and one coalesced response, got %v", traces)
	}

	ids, parents := dumpedSpans(t, dir, traces["coalesced"])
	root := ids["http estimate"]
	if ids["coalesce.wait"] == 0 || parents["coalesce.wait"] != root {
		t.Fatalf("follower: coalesce.wait missing or not a child of the root (ids %v, parents %v)", ids, parents)
	}
	for _, name := range []string{"queue.wait", "compute.estimate", "cache.put"} {
		if ids[name] != 0 {
			t.Fatalf("follower has a %s span: %v", name, ids)
		}
	}

	ids, parents = dumpedSpans(t, dir, traces["miss"])
	root = ids["http estimate"]
	if ids["cache.put"] == 0 || parents["cache.put"] != root || ids["cache.put"] < ids["encode"] {
		t.Fatalf("leader: cache.put missing, not a child of the root or before encode (ids %v, parents %v)", ids, parents)
	}
	if ids["coalesce.wait"] != 0 {
		t.Fatalf("leader has a coalesce.wait span: %v", ids)
	}
}

// BenchmarkEstimateHandler is the before/after pair for the
// observability layer: with tracing off the instrumented path must cost
// the same as the PR 5 handler (nil checks only). Compare:
//
//	go test ./internal/server -bench BenchmarkEstimateHandler -benchtime 2s
func BenchmarkEstimateHandler(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"untraced", Config{}},
		{"traced", Config{TraceRequests: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(bc.cfg)
			h := s.Handler()
			body, _ := json.Marshal(EstimateRequest{circuitRef: circuitRef{Circuit: "cla8"}, Estimator: "propagated"})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}
