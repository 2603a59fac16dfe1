package obsv

import (
	"strings"
	"testing"
)

func TestSanitizeProm(t *testing.T) {
	cases := map[string]string{
		"sim.events":            "sim_events",
		"server.request-ns":     "server_request_ns",
		"lpflow.pass.strash.us": "lpflow_pass_strash_us",
		"already_fine:ok":       "already_fine:ok",
		"9lives":                "_9lives",
		"":                      "_",
		"röntgen/µs":            "r__ntgen___s",
	}
	for in, want := range cases {
		if got := SanitizeProm(in); got != want {
			t.Errorf("SanitizeProm(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestExportDeterministicSharedPrefix pins the satellite fix: names that
// share a prefix — including dotted and dashed variants whose sanitized
// forms collide or reorder — must export identically on every call.
func TestExportDeterministicSharedPrefix(t *testing.T) {
	r := NewRegistry()
	// "req.latency" / "req.latency.ms" / "req.latency-ms" share a prefix;
	// the last two sanitize to the SAME prom name, and '.' vs '-' vs 'z'
	// sort differently before and after sanitizing.
	r.Counter("req.latency").Add(1)
	r.Counter("req.latency.ms").Add(2)
	r.Counter("req.latency-ms").Add(3)
	r.Counter("req.latencyz").Add(4)
	r.Gauge("req.inflight").Set(5)
	r.Histogram("req.size").Observe(9)

	var first string
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = b.String()
			continue
		}
		if b.String() != first {
			t.Fatalf("WritePrometheus output changed between calls:\n--- run 0:\n%s--- run %d:\n%s", first, i, b.String())
		}
	}

	// The dotted and dashed variants both sanitize to req_latency_ms; the
	// later raw name ("req.latency.ms" sorts after "req.latency-ms") must
	// deterministically carry the _2 suffix.
	if !strings.Contains(first, "req_latency_ms 3\n") {
		t.Errorf("dashed name should own the unsuffixed series:\n%s", first)
	}
	if !strings.Contains(first, "req_latency_ms_2 2\n") {
		t.Errorf("dotted name should be suffixed _2:\n%s", first)
	}
	if !strings.Contains(first, "req_latency 1\n") || !strings.Contains(first, "req_latencyz 4\n") {
		t.Errorf("prefix-sharing names missing:\n%s", first)
	}

	// Export (the JSON map) must be call-to-call stable too.
	e1 := r.Export()
	e2 := r.Export()
	if len(e1) != len(e2) {
		t.Fatalf("Export length changed: %d vs %d", len(e1), len(e2))
	}
	for k, v := range e1 {
		if c1, ok := v.(int64); ok {
			if c2, ok2 := e2[k].(int64); !ok2 || c1 != c2 {
				t.Fatalf("Export[%q] changed: %v vs %v", k, v, e2[k])
			}
		}
	}
}

func TestWritePrometheusFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.requests").Add(7)
	r.Gauge("server.inflight").Set(2)
	h := r.Histogram("server.http.estimate.latency_us")
	h.Observe(0)
	h.Observe(1)
	h.Observe(5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE server_requests counter\nserver_requests 7\n",
		"# TYPE server_inflight gauge\nserver_inflight 2\n",
		"# TYPE server_http_estimate_latency_us histogram\n",
		"server_http_estimate_latency_us_bucket{le=\"0\"} 1\n",
		"server_http_estimate_latency_us_bucket{le=\"1\"} 2\n",
		"server_http_estimate_latency_us_bucket{le=\"3\"} 2\n",
		"server_http_estimate_latency_us_bucket{le=\"7\"} 4\n",
		"server_http_estimate_latency_us_bucket{le=\"+Inf\"} 4\n",
		"server_http_estimate_latency_us_sum 11\n",
		"server_http_estimate_latency_us_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %q", b.String())
	}
}
