package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bdd"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

var accessTS = regexp.MustCompile(`^\{"ts":"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}Z",`)

// normalizeAccessLine replaces the two run-dependent fields of an access
// line with fixed values: ts (after checking its shape) and trace (after
// checking it is the X-Trace-Id the response carried).
func normalizeAccessLine(t *testing.T, line, traceID string) string {
	t.Helper()
	if !accessTS.MatchString(line) {
		t.Fatalf("access line has no ts prefix: %q", line)
	}
	line = accessTS.ReplaceAllLiteralString(line, `{"ts":"2026-01-01T00:00:00.000Z",`)
	field := `"trace":"` + traceID + `"}`
	if traceID == "" || !strings.HasSuffix(line, field) {
		t.Fatalf("access line does not end in %s: %q", field, line)
	}
	return strings.TrimSuffix(line, field) + `"trace":"0000000000000000"}`
}

// TestAccessLinesMatchGolden pins whole access-log lines: an estimate
// miss and hit, a coalesced follower and its leader, a 400, a 404 and a
// path that needs JSON escaping. Latencies come from a fake clock, so
// only ts and the trace ID are normalized. The golden was captured from
// the map-based logger the typed record replaced.
func TestAccessLinesMatchGolden(t *testing.T) {
	var got []string

	// Serial requests: every clock reading advances 1.5 ms, so each
	// latency counts the readings a request makes.
	var log bytes.Buffer
	h := New(Config{AccessLog: &log, Clock: (&stepClock{step: int64(1500 * time.Microsecond)}).Now}).Handler()
	serial := []struct {
		name, method, target, body string
		status                     int
	}{
		{"miss", http.MethodPost, "/v1/estimate", `{"circuit":"dec5","estimator":"propagated","p1":0.3}`, http.StatusOK},
		{"hit", http.MethodPost, "/v1/estimate", `{"circuit":"dec5","estimator":"propagated","p1":0.3}`, http.StatusOK},
		{"bad-request", http.MethodPost, "/v1/estimate", `{"circuit":`, http.StatusBadRequest},
		{"not-found", http.MethodGet, "/v1/nope", ``, http.StatusNotFound},
		{"escaped-path", http.MethodGet, "/v1/%3Cx%3E%26%22%5C%E2%80%A8%FF%01%7F", ``, http.StatusNotFound},
	}
	for _, c := range serial {
		log.Reset()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
		if rec.Code != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.name, rec.Code, c.status, rec.Body.Bytes())
		}
		line := strings.TrimSuffix(log.String(), "\n")
		if strings.Contains(line, "\n") {
			t.Fatalf("%s: want one access line, got %q", c.name, log.String())
		}
		got = append(got, c.name+"\t"+normalizeAccessLine(t, line, rec.Header().Get("X-Trace-Id")))
	}

	// A leader and one coalesced follower. The leader waits for the only
	// worker slot, held here until the follower has attached; the clock
	// moves only while both wait, so both latencies are that step.
	log.Reset()
	mc := &manualClock{}
	s := New(Config{AccessLog: &log, Clock: mc.Now, Workers: 1})
	h = s.Handler()
	s.sem <- struct{}{}
	leaders, hits := s.coalLeaders.Value(), s.coalHits.Value()
	traces := map[string]string{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	send := func(role string) {
		defer wg.Done()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate",
			strings.NewReader(`{"circuit":"alu4","estimator":"propagated"}`)))
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", role, rec.Code, rec.Body.Bytes())
		}
		mu.Lock()
		traces[rec.Header().Get("X-Cache")] = rec.Header().Get("X-Trace-Id")
		mu.Unlock()
	}
	wg.Add(1)
	go send("leader")
	waitUntil(t, 5*time.Second, func() bool { return s.coalLeaders.Value()-leaders == 1 })
	wg.Add(1)
	go send("follower")
	waitUntil(t, 5*time.Second, func() bool { return s.coalHits.Value()-hits == 1 })
	mc.Advance(1234 * time.Microsecond)
	<-s.sem
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("herd: want 2 access lines, got %q", log.String())
	}
	for _, disp := range []string{"miss", "coalesced"} {
		for _, line := range lines {
			if strings.Contains(line, `"cache":"`+disp+`"`) {
				got = append(got, "herd-"+disp+"\t"+normalizeAccessLine(t, line, traces[disp]))
			}
		}
	}

	for _, line := range got {
		var m map[string]any
		if err := json.Unmarshal([]byte(line[strings.IndexByte(line, '\t')+1:]), &m); err != nil {
			t.Fatalf("not a JSON line: %q: %v", line, err)
		}
	}
	text := strings.Join(got, "\n") + "\n"
	path := filepath.Join("testdata", "access.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Fatalf("access lines differ from %s:\n got:\n%s\nwant:\n%s", path, text, want)
	}
}

// TestCacheKeysPinned pins result-cache key strings, which the cache,
// the coalescing flights and batch dedup all compare.
func TestCacheKeysPinned(t *testing.T) {
	spec := estimateSpec{estimator: "simulated", vectors: 256, seed: 7, budget: bdd.Budget{MaxNodes: 20000, MaxSteps: 0}}
	for _, c := range []struct {
		p1   float64
		want string
	}{
		{0.5, "estimate|h0|est=simulated;v=256;seed=7;p1=0.5;bn=20000;bs=0"},
		{0.3, "estimate|h0|est=simulated;v=256;seed=7;p1=0.3;bn=20000;bs=0"},
		{1e-7, "estimate|h0|est=simulated;v=256;seed=7;p1=1e-07;bn=20000;bs=0"},
	} {
		spec.p1 = c.p1
		if got := estimateKey("h0", spec); got != c.want {
			t.Errorf("estimateKey(p1=%g) = %q, want %q", c.p1, got, c.want)
		}
	}
	fs := flowSpec{seed: 3, verify: true, budget: bdd.Budget{MaxNodes: 0, MaxSteps: 99}, incremental: true}
	fs.flow.Name = "lowpower"
	if got, want := flowKey("h1", fs), "flow|h1|flow=lowpower;seed=3;verify=true;bn=0;bs=99;incr=true"; got != want {
		t.Errorf("flowKey = %q, want %q", got, want)
	}
}

// TestCacheKeysMatchFormat compares the keys with the fmt formats they
// were built with before, over p1 values that exercise every branch of
// %g (shortest digits, exponents, zero, negative zero, the unit bounds).
func TestCacheKeysMatchFormat(t *testing.T) {
	for _, p1 := range []float64{0, negZero(), 1, 0.5, 0.1 + 0.2, 1e-4, 1e-5, 123456789e-9, 1e-300, 5e-324, 0.999999999999} {
		for _, spec := range []estimateSpec{
			{estimator: "exact", vectors: 1000, seed: 1, p1: p1},
			{estimator: "packed", vectors: maxVectors, seed: 1 << 62, p1: p1, budget: bdd.Budget{MaxNodes: -1, MaxSteps: -1 << 40}},
		} {
			want := fmt.Sprintf("estimate|%s|est=%s;v=%d;seed=%d;p1=%g;bn=%d;bs=%d",
				"abc", spec.estimator, spec.vectors, spec.seed, spec.p1, spec.budget.MaxNodes, spec.budget.MaxSteps)
			if got := estimateKey("abc", spec); got != want {
				t.Errorf("estimateKey = %q, want %q", got, want)
			}
		}
	}
	for _, fs := range []flowSpec{{seed: 1}, {seed: 1 << 40, verify: true, budget: bdd.Budget{MaxNodes: 7, MaxSteps: 8}, incremental: true}} {
		fs.flow.Name = "glitch"
		want := fmt.Sprintf("flow|%s|flow=%s;seed=%d;verify=%t;bn=%d;bs=%d;incr=%t",
			"abc", fs.flow.Name, fs.seed, fs.verify, fs.budget.MaxNodes, fs.budget.MaxSteps, fs.incremental)
		if got := flowKey("abc", fs); got != want {
			t.Errorf("flowKey = %q, want %q", got, want)
		}
	}
}

func negZero() float64 { z := 0.0; return -z }
