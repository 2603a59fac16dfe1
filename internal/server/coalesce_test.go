package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResultForExactlyOneComputePerKey is the core coalescing contract:
// N concurrent identical requests, one compute, byte-identical results.
// The leader's compute blocks until every follower has joined the
// flight, so the test is deterministic, not timing-dependent.
func TestResultForExactlyOneComputePerKey(t *testing.T) {
	s := New(Config{})
	const n = 16
	hitsBase := s.coalHits.Value()
	leadersBase := s.coalLeaders.Value()
	var computes atomic.Int32
	release := make(chan struct{})
	compute := func(ctx context.Context) (cachedResult, error) {
		computes.Add(1)
		<-release
		return cachedResult{body: []byte("payload"), degraded: true}, nil
	}

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	disps := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, disp, err := s.resultFor(context.Background(), "coalesce-test-key", time.Time{}, compute)
			bodies[i], disps[i], errs[i] = res.body, disp, err
		}(i)
	}
	// All n-1 followers are attached to the leader's flight before the
	// compute is allowed to finish.
	waitUntil(t, 5*time.Second, func() bool { return s.coalHits.Value()-hitsBase == n-1 })
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want exactly 1", got)
	}
	if got := s.coalLeaders.Value() - leadersBase; got != 1 {
		t.Fatalf("coalesce.leaders delta = %d, want 1", got)
	}
	var miss, coalesced int
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], []byte("payload")) {
			t.Fatalf("request %d body %q, want the leader's bytes", i, bodies[i])
		}
		switch disps[i] {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Fatalf("request %d disposition %q", i, disps[i])
		}
	}
	if miss != 1 || coalesced != n-1 {
		t.Fatalf("dispositions: %d miss / %d coalesced, want 1 / %d", miss, coalesced, n-1)
	}

	// The result was cached by the leader: a later request is a plain hit.
	res, disp, err := s.resultFor(context.Background(), "coalesce-test-key", time.Time{}, compute)
	if err != nil || disp != "hit" || !bytes.Equal(res.body, []byte("payload")) {
		t.Fatalf("after flight: disp %q err %v body %q, want a cache hit", disp, err, res.body)
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("cache hit recomputed: computes = %d", got)
	}
}

// TestResultForDistinctKeysComputeIndependently: near-identical requests
// (different options digest → different key) never coalesce with each
// other.
func TestResultForDistinctKeysComputeIndependently(t *testing.T) {
	s := New(Config{})
	const keys = 4
	var computes atomic.Int32
	started := make(chan string, keys)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("distinct-key-%d", i)
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			res, disp, err := s.resultFor(context.Background(), key, time.Time{}, func(ctx context.Context) (cachedResult, error) {
				computes.Add(1)
				started <- key
				<-release
				return cachedResult{body: []byte(key)}, nil
			})
			if err != nil || disp != "miss" || string(res.body) != key {
				t.Errorf("%s: disp %q err %v body %q", key, disp, err, res.body)
			}
		}(key)
	}
	// Every key's compute runs concurrently: no cross-key serialization.
	seen := map[string]bool{}
	for i := 0; i < keys; i++ {
		seen[<-started] = true
	}
	if len(seen) != keys {
		t.Fatalf("started computes for %d keys, want %d", len(seen), keys)
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != keys {
		t.Fatalf("computes = %d, want one per key = %d", got, keys)
	}
}

// TestFollowerDetachesOnOwnDeadlineLeaderSurvives: a follower whose ctx
// expires mid-flight gets its own deadline error while the leader keeps
// computing and still publishes a result.
func TestFollowerDetachesOnOwnDeadlineLeaderSurvives(t *testing.T) {
	s := New(Config{})
	detachedBase := s.coalDetached.Value()
	computeStarted := make(chan struct{})
	block := make(chan struct{})
	leaderDone := make(chan struct{})
	var leaderRes cachedResult
	var leaderErr error
	go func() {
		defer close(leaderDone)
		leaderRes, _, leaderErr = s.resultFor(context.Background(), "detach-key", time.Time{}, func(ctx context.Context) (cachedResult, error) {
			close(computeStarted)
			<-block
			return cachedResult{body: []byte("survived")}, nil
		})
	}()
	<-computeStarted

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := s.resultFor(ctx, "detach-key", time.Time{}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower error = %v, want its own DeadlineExceeded", err)
	}
	if got := s.coalDetached.Value() - detachedBase; got != 1 {
		t.Fatalf("coalesce.detached delta = %d, want 1", got)
	}

	// The follower's departure must not have cancelled the leader.
	close(block)
	<-leaderDone
	if leaderErr != nil || string(leaderRes.body) != "survived" {
		t.Fatalf("leader: err %v body %q, want a clean result", leaderErr, leaderRes.body)
	}
}

// TestFollowerRetriesAfterLeaderFailure: a leader failing on its own
// terms (e.g. its stingier deadline) must not infect a follower with a
// live context — the follower re-enters and becomes the next leader.
func TestFollowerRetriesAfterLeaderFailure(t *testing.T) {
	s := New(Config{})
	hitsBase := s.coalHits.Value()
	var calls atomic.Int32
	followerJoined := func() bool { return s.coalHits.Value()-hitsBase >= 1 }
	compute := func(ctx context.Context) (cachedResult, error) {
		if calls.Add(1) == 1 {
			// First leader: wait for the follower to attach, then fail.
			deadline := time.Now().Add(5 * time.Second)
			for !followerJoined() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			return cachedResult{}, context.DeadlineExceeded
		}
		return cachedResult{body: []byte("second try")}, nil
	}

	leaderErrCh := make(chan error, 1)
	go func() {
		_, _, err := s.resultFor(context.Background(), "retry-key", time.Time{}, compute)
		leaderErrCh <- err
	}()
	// Join as a follower once the first flight exists.
	waitUntil(t, 5*time.Second, func() bool {
		s.flights.mu.Lock()
		_, ok := s.flights.m["retry-key"]
		s.flights.mu.Unlock()
		return ok
	})
	res, disp, err := s.resultFor(context.Background(), "retry-key", time.Time{}, compute)
	if err != nil {
		t.Fatalf("follower after leader failure: %v", err)
	}
	if disp != "miss" || string(res.body) != "second try" {
		t.Fatalf("follower retry: disp %q body %q, want a fresh leader compute", disp, res.body)
	}
	if err := <-leaderErrCh; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first leader error = %v, want its own deadline error", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("computes = %d, want 2 (failed leader + retry)", got)
	}
}

// metricValue reads one cumulative counter from the /metrics JSON
// export of a test server.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	_, body := get(t, ts, "/metrics")
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	v, _ := m[name].(float64)
	return v
}

// TestHerdOverHTTPComputesOnceByteIdentical is the end-to-end herd:
// identical concurrent POST /v1/estimate requests, launched together,
// must collapse to far fewer computations than requests with every
// response body byte-identical.
func TestHerdOverHTTPComputesOnceByteIdentical(t *testing.T) {
	ts := newTestServer(t, Config{})
	const n = 24
	// The process-global registry is shared across servers in this test
	// binary: measure deltas, not absolutes.
	leadersBefore := metricValue(t, ts, "server.coalesce.leaders")

	req := EstimateRequest{circuitRef: circuitRef{Circuit: "mult5"}, Estimator: "exact", Seed: 9}
	start := make(chan struct{})
	bodies := make([][]byte, n)
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			statuses[i], bodies[i], _ = post(t, ts, "/v1/estimate", req)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, statuses[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	computed := metricValue(t, ts, "server.coalesce.leaders") - leadersBefore
	if computed < 1 || computed >= n {
		t.Fatalf("herd of %d computed %.0f times, want >= 1 and well under the herd size", n, computed)
	}
}

// TestHitPathBuildsNoDeadline: a result-cache hit answers without ever
// creating the request's deadline context, and a miss still runs its
// computation under the request deadline.
func TestHitPathBuildsNoDeadline(t *testing.T) {
	s := New(Config{})
	var sawDeadline bool
	compute := func(ctx context.Context) (cachedResult, error) {
		_, sawDeadline = ctx.Deadline()
		return cachedResult{body: []byte("x")}, nil
	}
	deadline := time.Now().Add(time.Minute)
	if _, disp, err := s.resultFor(context.Background(), "deadline-key", deadline, compute); err != nil || disp != "miss" || !sawDeadline {
		t.Fatalf("miss: disp %q err %v deadline %v, want a miss computed under the deadline", disp, err, sawDeadline)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, disp, _ := s.resultFor(context.Background(), "deadline-key", deadline, compute); disp != "hit" {
			t.Fatalf("disp %q, want hit", disp)
		}
	})
	if allocs != 0 {
		t.Fatalf("a result-cache hit allocates %v times, want 0", allocs)
	}
}

// BenchmarkServerHerdCoalesced serves bursts of 32 byte-identical
// estimate requests (the lploadgen herd shape) through the in-process
// handler and reports the coalescing efficiency: herd requests per
// actual computation across the run.
func BenchmarkServerHerdCoalesced(b *testing.B) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const herd = 32
	body := []byte(`{"circuit":"mult5","estimator":"exact","seed":11}`)
	leadersBefore := s.coalLeaders.Value()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < herd; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	computed := float64(s.coalLeaders.Value() - leadersBefore)
	if computed < 1 {
		computed = 1
	}
	b.ReportMetric(float64(b.N*herd)/computed, "requests/compute")
}
