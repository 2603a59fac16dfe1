package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// jsonBody marshals a request payload for httptest.NewRequest.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// TestWriteErrorClassifiesClientAbort pins the error accounting through
// the full handler: only a server error (status >= 500) raises
// server.errors; client errors (400, 404) raise nothing, and a client
// abort (499) raises server.client_aborts alone.
func TestWriteErrorClassifiesClientAbort(t *testing.T) {
	s := New(Config{DefaultTimeout: time.Millisecond})
	h := s.Handler()

	// Hold one estimate's computation in flight: requests for it wait
	// as coalesced followers until their own context ends, so the 504
	// and the 499 below do not depend on how fast the estimate is.
	gated := EstimateRequest{circuitRef: circuitRef{Circuit: "mult4"}, Estimator: "propagated"}
	spec, err := s.validateEstimate(gated)
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
		s.resultFor(context.Background(), estimateKey(ent.hash, spec), time.Time{}, func(context.Context) (cachedResult, error) {
			close(started)
			<-release
			return cachedResult{}, errors.New("gated leader abandoned")
		})
	}()
	<-started
	defer func() {
		close(release)
		<-leaderDone
	}()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, c := range []struct {
		name           string
		req            *http.Request
		status         int
		errors, aborts int64
	}{
		{"unknown circuit", httptest.NewRequest(http.MethodPost, "/v1/estimate",
			jsonBody(t, EstimateRequest{circuitRef: circuitRef{Circuit: "no-such-circuit"}})), http.StatusBadRequest, 0, 0},
		{"unknown job", httptest.NewRequest(http.MethodGet, "/v1/jobs/no-such-job", nil), http.StatusNotFound, 0, 0},
		{"deadline", httptest.NewRequest(http.MethodPost, "/v1/estimate", jsonBody(t, gated)), http.StatusGatewayTimeout, 1, 0},
		{"client abort", httptest.NewRequest(http.MethodPost, "/v1/estimate", jsonBody(t, gated)).WithContext(cancelled),
			statusClientClosedRequest, 0, 1},
	} {
		errorsBase, abortsBase := s.tel.errors.Value(), s.tel.clientAborts.Value()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, c.req)
		if rec.Code != c.status {
			t.Fatalf("%s: status %d, want %d (body %s)", c.name, rec.Code, c.status, rec.Body.Bytes())
		}
		if got := s.tel.errors.Value() - errorsBase; got != c.errors {
			t.Errorf("%s: server.errors delta = %d, want %d", c.name, got, c.errors)
		}
		if got := s.tel.clientAborts.Value() - abortsBase; got != c.aborts {
			t.Errorf("%s: server.client_aborts delta = %d, want %d", c.name, got, c.aborts)
		}
	}
}

// TestClientDisconnectMidCompute drives the full path: a client that
// walks away while its flow is computing gets a 499 on the (recorded)
// response, and the abort is excluded from both the windowed error
// counters and the availability SLO — a disconnecting client must not
// burn the server's error budget.
func TestClientDisconnectMidCompute(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	abortsBase := s.tel.clientAborts.Value()
	errorsBase := s.tel.errors.Value()
	leadersBase := s.coalLeaders.Value()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/flow",
		jsonBody(t, FlowRequest{circuitRef: circuitRef{Circuit: "mult6"}, Flow: "lowpower"})).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()

	// Wait until the request has been elected compute leader — it is now
	// mid-compute — then hang up.
	waitUntil(t, 10*time.Second, func() bool { return s.coalLeaders.Value()-leadersBase == 1 })
	cancel()
	<-done

	if rec.Code != statusClientClosedRequest {
		t.Fatalf("mid-compute disconnect → %d, want 499", rec.Code)
	}
	if got := s.tel.clientAborts.Value() - abortsBase; got != 1 {
		t.Errorf("client_aborts delta = %d, want 1", got)
	}
	if got := s.tel.errors.Value() - errorsBase; got != 0 {
		t.Errorf("server.errors delta = %d, want 0", got)
	}
	// Windowed telemetry recorded the request but no error, and the
	// availability objective is untouched (bad events are status >= 500).
	st := s.statusSnapshot()
	if fw := st.Endpoints[2]; fw.Endpoint != "flow" || fw.Requests != 1 || fw.Errors != 0 {
		t.Errorf("flow window: %+v, want 1 request / 0 errors", fw)
	}
	if v := st.Objectives[0]; v.State != "ok" {
		t.Errorf("availability SLO %q after a lone 499, want ok (aborts excluded from budget)", v.State)
	}
}
