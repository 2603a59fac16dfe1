package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obsv"
)

// submitAsync posts an async flow and returns the job ID.
func submitAsync(t *testing.T, tsURL string, req FlowRequest) string {
	t.Helper()
	b, _ := json.Marshal(req)
	resp, err := http.Post(tsURL+"/v1/flow?async=1", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || sub.JobID == "" || sub.State != "queued" {
		t.Fatalf("async submit: status %d envelope %+v, want 202 queued with a job_id", resp.StatusCode, sub)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+sub.JobID {
		t.Fatalf("Location = %q, want /v1/jobs/%s", loc, sub.JobID)
	}
	return sub.JobID
}

// awaitJob polls until the job reaches done or error and returns the
// final envelope.
func awaitJob(t *testing.T, tsURL, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(tsURL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr JobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d err %v", resp.StatusCode, err)
		}
		switch jr.State {
		case "done", "error":
			return jr
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, jr.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAsyncFlowOutlivesSyncDeadline is the acceptance scenario: a flow
// that 504s under the sync default deadline completes through the job
// API, and its result is byte-identical to an unconstrained sync run.
func TestAsyncFlowOutlivesSyncDeadline(t *testing.T) {
	// 1ms sync deadline. A channel-gated leader holds this flow's
	// computation in flight, so the sync request joins it, outlives its
	// deadline while waiting, and must get 504 however fast the flow
	// itself is. It never queues for a worker, so the deadline cannot
	// expire there instead (503).
	s := New(Config{DefaultTimeout: time.Millisecond, MaxTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	req := FlowRequest{circuitRef: circuitRef{Circuit: "mult5"}, Flow: "lowpower"}
	spec, err := s.validateFlow(req)
	if err != nil {
		t.Fatal(err)
	}
	ent, err := s.resolveNetwork(context.Background(), spec.ref)
	if err != nil {
		t.Fatal(err)
	}
	started, release, leaderDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(leaderDone)
		s.resultFor(context.Background(), flowKey(ent.hash, spec), time.Time{}, func(context.Context) (cachedResult, error) {
			close(started)
			<-release
			// Failing caches nothing: the async job below computes.
			return cachedResult{}, errors.New("gated leader abandoned")
		})
	}()
	<-started
	status, body, _ := post(t, ts, "/v1/flow", req)
	close(release)
	<-leaderDone
	if status != http.StatusGatewayTimeout {
		t.Fatalf("sync flow under a 1ms deadline: status %d body %s, want 504", status, body)
	}

	// The same request async: accepted, runs under MaxTimeout, completes.
	id := submitAsync(t, ts.URL, req)
	jr := awaitJob(t, ts.URL, id)
	if jr.State != "done" || len(jr.Result) == 0 {
		t.Fatalf("async job ended %q (error %q), want done with result bytes", jr.State, jr.Error)
	}

	// Byte-identity with a sync run on an unconstrained server (the
	// wire body adds only the framing newline to the job's payload).
	fresh := newTestServer(t, Config{})
	status, want, _ := post(t, fresh, "/v1/flow", req)
	if status != http.StatusOK {
		t.Fatalf("reference sync flow: status %d", status)
	}
	if !bytes.Equal(jr.Result, bytes.TrimSuffix(want, []byte("\n"))) {
		t.Errorf("async result differs from sync result:\n%s\nvs\n%s", jr.Result, want)
	}

	// The async result seeded the shared response cache: the formerly
	// impossible sync request is now an instant hit.
	status, cached, cache := post(t, ts, "/v1/flow", req)
	if status != http.StatusOK || cache != "hit" {
		t.Fatalf("sync after async: status %d cache %q, want a 200 hit", status, cache)
	}
	if !bytes.Equal(bytes.TrimSuffix(cached, []byte("\n")), jr.Result) {
		t.Error("cached sync body differs from the async job result")
	}
}

// TestAsyncFlowErrorState: a request-scoped timeout still binds an
// async job; the failure surfaces as the error state, not a 5xx poll.
func TestAsyncFlowErrorState(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := FlowRequest{circuitRef: circuitRef{Circuit: "mult6"}, Flow: "lowpower", TimeoutMS: 1}
	id := submitAsync(t, ts.URL, req)
	jr := awaitJob(t, ts.URL, id)
	if jr.State != "error" {
		t.Fatalf("job state %q, want error under a 1ms budget", jr.State)
	}
	if jr.ErrorStatus != http.StatusGatewayTimeout && jr.ErrorStatus != http.StatusServiceUnavailable {
		t.Errorf("error_status = %d, want a timeout-shaped status", jr.ErrorStatus)
	}
	if jr.Error == "" {
		t.Error("error state lacks a message")
	}
}

// TestAsyncSubmitValidatesEagerly: bad circuits and bad flows fail the
// submission with 400 — no job is created for garbage.
func TestAsyncSubmitValidatesEagerly(t *testing.T) {
	ts := newTestServer(t, Config{})
	for name, req := range map[string]FlowRequest{
		"bad circuit": {circuitRef: circuitRef{Circuit: "warp-core"}, Flow: "glitch"},
		"bad flow":    {circuitRef: circuitRef{Circuit: "mult4"}, Flow: "turbo"},
	} {
		status, body, _ := post(t, ts, "/v1/flow?async=1", req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400 at submission", name, status, body)
		}
	}
}

func TestJobGetUnknownIs404(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, body := get(t, ts, "/v1/jobs/no-such-job")
	if status != http.StatusNotFound || !strings.Contains(string(body), "no-such-job") {
		t.Fatalf("unknown job: status %d body %s, want 404 naming the id", status, body)
	}
}

// TestJobStoreTTLAndCapacity drives the store directly under a manual
// clock: TTL eviction of finished jobs, capacity eviction of the oldest
// finished job, and 503 when every slot is live.
func TestJobStoreTTLAndCapacity(t *testing.T) {
	mc := &manualClock{}
	js := newJobStore(Config{MaxJobs: 2, JobTTL: time.Minute, Clock: mc.Now}, obsv.Enable())

	if err := js.submit("a"); err != nil {
		t.Fatal(err)
	}
	js.finish("a", cachedResult{body: []byte("ra")})
	if err := js.submit("b"); err != nil {
		t.Fatal(err)
	}
	js.setRunning("b")

	// Store full, one finished: submitting evicts the finished job.
	if err := js.submit("c"); err != nil {
		t.Fatalf("submit into a full store with a finished job: %v", err)
	}
	if _, ok := js.get("a"); ok {
		t.Error("finished job survived capacity eviction")
	}
	if j, ok := js.get("b"); !ok || j.state != jobRunning {
		t.Error("running job was evicted")
	}

	// Store full, nothing finished: 503.
	err := js.submit("d")
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusServiceUnavailable {
		t.Fatalf("submit with every slot live = %v, want a 503 apiError", err)
	}

	// TTL: finished jobs expire JobTTL after completion; live ones don't.
	js.finish("c", cachedResult{body: []byte("rc")})
	mc.Advance(time.Minute + time.Second)
	if _, ok := js.get("c"); ok {
		t.Error("finished job pollable past its TTL")
	}
	if _, ok := js.get("b"); !ok {
		t.Error("running job expired by TTL")
	}
}
