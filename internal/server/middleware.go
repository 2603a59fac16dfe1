package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obsv/profile"
	"repro/internal/obsv/trace"
)

// endpoints are the stable labels request metrics and access-log lines
// are keyed by — the route surface, not raw paths, so /v1/experiments/E7
// and /v1/experiments/E12 land in one histogram family.
var endpoints = []string{"estimate", "batch", "flow", "jobs", "experiment", "circuits", "metrics", "status", "healthz", "pprof", "other"}

// endpointOf maps a request path to its metric label.
func endpointOf(path string) string {
	switch {
	case path == "/v1/estimate":
		return "estimate"
	case path == "/v1/estimate:batch":
		return "batch"
	case path == "/v1/flow":
		return "flow"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "jobs"
	case strings.HasPrefix(path, "/v1/experiments/"):
		return "experiment"
	case path == "/v1/circuits":
		return "circuits"
	case path == "/metrics":
		return "metrics"
	case path == "/v1/status":
		return "status"
	case path == "/healthz":
		return "healthz"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "pprof"
	}
	return "other"
}

// statusWriter captures what the access log and telemetry report about
// a response: its status, its body size, and the cache and degraded
// dispositions writeCached also sends as X-Cache / X-Degraded, so no
// header or body is ever read back.
type statusWriter struct {
	http.ResponseWriter
	status   int
	bytes    int64
	cache    string // X-Cache value; empty when the response has none
	degraded bool
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// instrument wraps the routed handler with the serving-telemetry layer:
//
//   - every request gets a process-unique trace ID, echoed in the
//     X-Trace-Id response header and the access-log line;
//   - when Config.TraceRequests is on, a trace.Tracer is installed in the
//     request context, so handler/engine spans (decode, queue.wait,
//     coalesce.wait, resolve, power.exact, bdd.build, sim.measure,
//     pass.*, cache.put, encode, write) build a span tree;
//   - the per-endpoint in-flight gauge tracks the request, and
//     telemetry.record writes every series of the finished request;
//   - when Config.AccessLog is set, one key-sorted JSON line per request
//     is emitted via cliutil.LogAccess;
//   - requests slower than Config.SlowTraceThreshold dump their full span
//     tree as Chrome trace_event JSON into Config.SlowTraceDir.
//
// None of this touches response bodies: byte-determinism (and
// -selfcheck) are unaffected.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.cfg.Clock()
		ep := endpointOf(r.URL.Path)
		et := s.tel.eps[ep]
		et.inflight.Add(1)
		defer et.inflight.Add(-1)

		var root *trace.Span
		traceID := ""
		if s.cfg.TraceRequests {
			var ctx context.Context
			ctx, root = trace.New(r.Context(), "http "+ep)
			root.SetAttr("method", r.Method)
			root.SetAttr("path", r.URL.Path)
			traceID = root.TraceID()
			r = r.WithContext(ctx)
		} else {
			traceID = trace.NewTraceID()
		}
		w.Header()["X-Trace-Id"] = []string{traceID}

		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)

		elapsed := time.Duration(s.cfg.Clock() - start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		cache := sw.cache
		if cache == "" {
			cache = "-"
		}
		s.tel.record(et, sw.status, elapsed, cache, sw.degraded)
		if root != nil {
			root.SetAttr("status", sw.status)
			root.SetAttr("cache", cache)
			root.End()
		}
		if s.cfg.AccessLog != nil {
			cliutil.LogAccess(s.cfg.AccessLog, cliutil.AccessRecord{
				Method:    r.Method,
				Endpoint:  ep,
				Path:      r.URL.Path,
				Status:    sw.status,
				LatencyUS: elapsed.Microseconds(),
				Bytes:     sw.bytes,
				Cache:     cache,
				Degraded:  sw.degraded,
				Trace:     traceID,
			})
		}
		if root != nil && s.cfg.SlowTraceThreshold > 0 && elapsed >= s.cfg.SlowTraceThreshold && s.cfg.SlowTraceDir != "" {
			s.dumpSlowTrace(root.Tracer(), ep, sw.status)
		}
	})
}

// dumpSlowTrace writes a request's span tree as Chrome trace_event JSON
// (profile.FromTracer, loadable in Perfetto) to
// <SlowTraceDir>/trace_<traceID>.json. Failures are counted, not fatal:
// a full disk must never break serving.
func (s *Server) dumpSlowTrace(t *trace.Tracer, ep string, status int) {
	if err := os.MkdirAll(s.cfg.SlowTraceDir, 0o755); err != nil {
		s.reg.Counter("server.trace.dump.errors").Inc()
		return
	}
	path := filepath.Join(s.cfg.SlowTraceDir, "trace_"+t.ID()+".json")
	f, err := os.Create(path)
	if err != nil {
		s.reg.Counter("server.trace.dump.errors").Inc()
		return
	}
	defer f.Close()
	pt := profile.FromTracer(t, "lpserverd", fmt.Sprintf("%s %d", ep, status))
	if err := pt.WriteJSON(f); err != nil {
		s.reg.Counter("server.trace.dump.errors").Inc()
		return
	}
	s.reg.Counter("server.trace.slow_dumps").Inc()
}
