package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/obsv"
	"repro/internal/obsv/trace"
)

// Async job API.
//
// A flow that outlives the sync deadline used to be a guaranteed 504:
// the client's patience, not the server's capacity, bounded what could
// be computed. POST /v1/flow?async=1 decouples the two. Submission
// validates and resolves the circuit synchronously (a bad request still
// fails fast with 400), then returns 202 {job_id} and runs the flow
// detached from the client connection, under the server's own deadline
// (MaxTimeout unless the request named a tighter timeout_ms). The
// client polls GET /v1/jobs/{id} through queued → running → done/error
// and collects the result bytes from the done envelope.
//
// The job store is bounded (Config.MaxJobs) and TTL-evicted
// (Config.JobTTL, counted from completion): finished jobs stay pollable
// for the TTL, then vanish; when the store is full, the oldest finished
// job is evicted to make room, and if every slot is queued/running the
// submission is rejected with 503 — queue pressure must surface as
// backpressure, not unbounded memory. Because job execution runs through
// the same flowResult pipeline as sync requests, an async result seeds
// the response cache (and coalesces with concurrent identical requests),
// so polling a finished job and re-requesting it synchronously return
// the same bytes.

// jobState is the lifecycle of an async job.
type jobState string

const (
	jobQueued  jobState = "queued"
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobError   jobState = "error"
)

// job is one async flow run. Mutated only under jobStore.mu.
type job struct {
	id        string
	state     jobState
	res       cachedResult
	errStatus int
	errMsg    string
	// finished is the store-clock instant the job reached done/error;
	// expiry is finished + TTL. Meaningful only once terminal.
	finished int64
}

// terminal reports whether the job has reached done or error — the
// states that start the TTL clock and make the slot reclaimable.
func (j *job) terminal() bool {
	return j.state == jobDone || j.state == jobError
}

// jobStore is the bounded, TTL-evicted async job table.
type jobStore struct {
	max   int
	ttl   time.Duration
	clock Clock

	mu sync.Mutex
	m  map[string]*job

	submitted *obsv.Counter
	completed *obsv.Counter
	failed    *obsv.Counter
	rejected  *obsv.Counter
	evicted   *obsv.Counter
	active    *obsv.Gauge
}

func newJobStore(cfg Config, reg *obsv.Registry) *jobStore {
	return &jobStore{
		max:       cfg.MaxJobs,
		ttl:       cfg.JobTTL,
		clock:     cfg.Clock,
		m:         make(map[string]*job),
		submitted: reg.Counter("server.jobs.submitted"),
		completed: reg.Counter("server.jobs.completed"),
		failed:    reg.Counter("server.jobs.failed"),
		rejected:  reg.Counter("server.jobs.rejected"),
		evicted:   reg.Counter("server.jobs.evicted"),
		active:    reg.Gauge("server.jobs.active"),
	}
}

// sweepLocked drops finished jobs whose TTL has lapsed. Queued/running
// jobs never expire here: their lifetime is bounded by the run deadline,
// after which they become finished and start their TTL.
func (js *jobStore) sweepLocked(now int64) {
	for id, j := range js.m {
		if j.terminal() && now-j.finished >= int64(js.ttl) {
			delete(js.m, id)
			js.evicted.Inc()
		}
	}
}

// submit registers a new queued job, evicting the oldest finished job
// when the store is full. Returns a 503 apiError when every slot is
// still queued/running.
func (js *jobStore) submit(id string) error {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.sweepLocked(js.clock())
	if len(js.m) >= js.max {
		var oldest *job
		for _, j := range js.m {
			if j.terminal() && (oldest == nil || j.finished < oldest.finished) {
				oldest = j
			}
		}
		if oldest == nil {
			js.rejected.Inc()
			return &apiError{status: http.StatusServiceUnavailable,
				msg: "job store full: all jobs still queued or running"}
		}
		delete(js.m, oldest.id)
		js.evicted.Inc()
	}
	js.m[id] = &job{id: id, state: jobQueued}
	js.submitted.Inc()
	js.active.Set(float64(len(js.m)))
	return nil
}

func (js *jobStore) setRunning(id string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if j, ok := js.m[id]; ok && j.state == jobQueued {
		j.state = jobRunning
	}
}

func (js *jobStore) finish(id string, res cachedResult) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if j, ok := js.m[id]; ok {
		j.state = jobDone
		j.res = res
		j.finished = js.clock()
		js.completed.Inc()
	}
}

func (js *jobStore) fail(id string, status int, msg string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if j, ok := js.m[id]; ok {
		j.state = jobError
		j.errStatus = status
		j.errMsg = msg
		j.finished = js.clock()
		js.failed.Inc()
	}
}

// get returns a snapshot copy of the job (so callers read it without
// holding the lock), sweeping expired jobs on the way.
func (js *jobStore) get(id string) (job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.sweepLocked(js.clock())
	js.active.Set(float64(len(js.m)))
	j, ok := js.m[id]
	if !ok {
		return job{}, false
	}
	return *j, true
}

// JobResponse is the GET /v1/jobs/{id} envelope (also returned, minus
// result/error, by the 202 submission response). Result holds the
// byte-identical FlowResponse body once State is "done"; ErrorStatus and
// Error describe the failure once State is "error".
type JobResponse struct {
	JobID       string          `json:"job_id"`
	State       string          `json:"state"`
	Result      json.RawMessage `json:"result,omitempty"`
	Degraded    bool            `json:"degraded,omitempty"`
	ErrorStatus int             `json:"error_status,omitempty"`
	Error       string          `json:"error,omitempty"`
}

// submitFlowJob handles POST /v1/flow?async=1 after validation: resolve
// synchronously (bad circuits still 400 at submission), register the
// job, then run the flow in a detached goroutine under the server's own
// deadline — the client connection going away cannot cancel it.
func (s *Server) submitFlowJob(w http.ResponseWriter, r *http.Request, spec flowSpec) {
	ent, err := s.resolveNetwork(r.Context(), spec.ref)
	if err != nil {
		writeError(w, err)
		return
	}
	id := trace.NewTraceID()
	if err := s.jobs.submit(id); err != nil {
		writeError(w, err)
		return
	}
	// Async exists to outlive the sync deadline: when the request named
	// no timeout, run under MaxTimeout rather than DefaultTimeout.
	timeout := spec.timeout
	if !spec.hasTimeout {
		timeout = s.cfg.MaxTimeout
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		s.jobs.setRunning(id)
		res, _, err := s.flowResult(ctx, time.Time{}, ent, spec)
		if err != nil {
			s.jobs.fail(id, errorStatus(err), err.Error())
			return
		}
		s.jobs.finish(id, res)
	}()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+id)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(JobResponse{JobID: id, State: string(jobQueued)})
}

// handleJobGet serves GET /v1/jobs/{id} polling.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, &apiError{status: http.StatusNotFound,
			msg: "unknown or expired job " + id})
		return
	}
	resp := JobResponse{JobID: j.id, State: string(j.state)}
	switch j.state {
	case jobDone:
		resp.Result = json.RawMessage(j.res.body)
		resp.Degraded = j.res.degraded
	case jobError:
		resp.ErrorStatus = j.errStatus
		resp.Error = j.errMsg
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
