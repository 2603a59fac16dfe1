package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// statusScript is a fixed, seeded sequence of finished requests: each
// event carries its endpoint, status, latency, cache disposition and
// degraded flag. Events are spread over a little more than an hour so
// that both horizons fill, slide and expire.
type statusEvent struct {
	at       time.Duration
	ep       string
	status   int
	elapsed  time.Duration
	cache    string
	degraded bool
}

func statusScript() []statusEvent {
	eps := []string{"estimate", "batch", "flow", "experiment", "estimate", "healthz", "status", "metrics", "jobs", "circuits", "other", "pprof"}
	statuses := []int{200, 200, 200, 200, 500, 200, 503, 400, 499, 200, 504, 200, 404}
	caches := []string{"miss", "hit", "coalesced", "-", "hit", "miss", "hit"}
	latencies := []time.Duration{
		0, time.Microsecond, 999 * time.Nanosecond, 500 * time.Microsecond, 3 * time.Millisecond,
		latencyThreshold - time.Microsecond, latencyThreshold, 3 * time.Second, 40 * time.Millisecond,
		1 << 40, 17 * time.Microsecond,
	}
	var out []statusEvent
	x := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	add := func(at time.Duration) {
		out = append(out, statusEvent{
			at:       at,
			ep:       eps[next(len(eps))],
			status:   statuses[next(len(statuses))],
			elapsed:  latencies[next(len(latencies))],
			cache:    caches[next(len(caches))],
			degraded: next(5) == 0,
		})
	}
	// A burst at t=0, then a dense first ten minutes, then sparse
	// traffic to just past the hour.
	for i := 0; i < 40; i++ {
		add(0)
	}
	for at := 3 * time.Second; at < 10*time.Minute; at += 7*time.Second + 300*time.Millisecond {
		add(at)
		if next(3) == 0 {
			add(at)
		}
	}
	for at := 10 * time.Minute; at < 70*time.Minute; at += 97 * time.Second {
		add(at)
	}
	return out
}

// TestStatusMatchesGolden feeds statusScript through the record path
// under a manual clock and renders /v1/status (JSON and Prometheus) at
// the horizon edges: t=0, just before and at the 5m expiry of the t=0
// bucket, one short-bucket later, just before and at the 1h expiry, and
// past both. The rendering must match testdata/status.golden byte for
// byte. -update rewrites it; only do that for an intended change.
func TestStatusMatchesGolden(t *testing.T) {
	mc := &manualClock{}
	s := New(Config{Clock: mc.Now})
	snapshots := []time.Duration{
		0,
		5*time.Minute - 1, 5 * time.Minute, 5*time.Minute + 10*time.Second,
		time.Hour - 1, time.Hour, time.Hour + 5*time.Minute,
	}
	events := statusScript()
	var buf bytes.Buffer
	for _, at := range snapshots {
		for len(events) > 0 && events[0].at <= at {
			ev := events[0]
			events = events[1:]
			mc.now.Store(int64(ev.at))
			s.tel.record(s.tel.eps[ev.ep], ev.status, ev.elapsed, ev.cache, ev.degraded)
		}
		mc.now.Store(int64(at))
		for _, path := range []string{"/v1/status", "/v1/status?format=prom"} {
			rec := httptest.NewRecorder()
			s.handleStatus(rec, httptest.NewRequest(http.MethodGet, path, nil))
			fmt.Fprintf(&buf, "== t=%dns %s\n", int64(at), path)
			buf.Write(rec.Body.Bytes())
		}
	}

	golden := filepath.Join("testdata", "status.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("status rendering differs from %s:\n%s", golden, firstDiff(want, buf.Bytes()))
	}
}

// firstDiff reports the first differing line of two renderings.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\nwant %s\ngot  %s", i+1, w, g)
		}
	}
	return "lengths differ"
}
