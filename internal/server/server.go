// Package server implements lpserverd's HTTP/JSON estimation service: a
// long-lived daemon wrapping the toolkit's power estimators and
// optimization flows behind a small REST surface.
//
//	POST /v1/estimate          gate-level power report for a named generator
//	                           circuit or an uploaded BLIF
//	POST /v1/flow              run a named optimization flow, return the
//	                           before/after trajectory
//	GET  /v1/experiments/{id}  regenerate one survey experiment table
//	GET  /v1/circuits          list generators, flows and estimators
//	GET  /metrics              obsv registry dump (JSON)
//	GET  /v1/status            rolling-window serving report and SLO verdicts
//	GET  /healthz              liveness probe
//	GET  /debug/pprof/         standard pprof handlers
//
// Design constraints, in order:
//
// Determinism. Two identical requests must produce byte-identical bodies
// no matter how many other requests are in flight — that is what makes
// the response cache sound and what `lpserverd -selfcheck` verifies. So
// response bodies carry only run-independent data: no wall-clock timings
// (those live only in trace spans), no cache status (that goes in the
// X-Cache header), and every stochastic estimator is seeded from the
// request. Budget-degraded exact estimates stay deterministic (the Monte
// Carlo fallback is seeded) and are therefore cacheable; context
// cancellations are errors and are never cached.
//
// Isolation. Cached *logic.Network values are shared read-only across
// requests; estimation never mutates a network. Flows DO mutate, so
// handleFlow clones the cached network first — a request must never be
// able to poison the cache for later ones. For the same reason the server
// caches no BDD managers at all: bdd.FromNetworkCtx builds a fresh
// manager per estimate, so a budget trip in one request cannot leave a
// sticky error behind for the next.
//
// Bounded work. A semaphore caps concurrent heavy computations at
// Config.Workers; queued requests give up when their deadline expires.
// Every request runs under a deadline (request-supplied, clamped to
// Config.MaxTimeout) and a BDD budget, so one pathological circuit
// degrades or times out instead of wedging a worker forever.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/obsv/trace"
	"repro/internal/power"
	"repro/internal/sim"
)

// Config tunes a Server. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// Workers caps concurrently executing estimation/flow/experiment
	// computations (not connections). <= 0 means GOMAXPROCS.
	Workers int
	// NetworkCacheSize bounds the parsed-network LRU (default 64).
	NetworkCacheSize int
	// ResultCacheSize bounds the response-body LRU (default 512).
	ResultCacheSize int
	// DefaultTimeout is the per-request deadline when the request names
	// none (default 30s). MaxTimeout clamps request-supplied deadlines
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DefaultBudget is the BDD budget applied to exact estimation when
	// the request sets neither bdd_max_nodes nor bdd_max_steps. The zero
	// value means unlimited.
	DefaultBudget bdd.Budget
	// MaxBatchItems caps the items accepted by POST /v1/estimate:batch
	// (default 32).
	MaxBatchItems int
	// MaxJobs bounds the async job store; submissions past the bound
	// (after TTL eviction) are rejected with 503 (default 256). JobTTL
	// is how long a finished job's result stays pollable (default 10m).
	MaxJobs int
	JobTTL  time.Duration

	// TraceRequests installs a per-request span tree (internal/obsv/trace)
	// in every request context: handler phases and engine internals
	// (decode, queue.wait, coalesce.wait, resolve, bdd.build,
	// sim.measure, power.exact, pass.*, cache.put, encode, write) become
	// spans.
	// Off by default; X-Trace-Id is set either way, the disabled path
	// paying only an ID generation and nil span checks.
	TraceRequests bool
	// AccessLog, when non-nil, receives one key-sorted JSON line per
	// request (cliutil.LogAccess: method, endpoint, path, status, latency,
	// bytes, cache and degraded dispositions, trace ID).
	AccessLog io.Writer
	// SlowTraceThreshold dumps the span tree of any request at least this
	// slow as Chrome trace_event JSON into SlowTraceDir (requires
	// TraceRequests; 0 disables).
	SlowTraceThreshold time.Duration
	SlowTraceDir       string

	// Clock is the monotonic clock behind the rolling status and SLO
	// rings, request timing and job expiry (default: nanoseconds since
	// process start on the runtime's monotonic timer). Tests inject a
	// stepped fake clock to make GET /v1/status byte-deterministic.
	Clock Clock
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.NetworkCacheSize <= 0 {
		c.NetworkCacheSize = 64
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 512
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 32
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.Clock == nil {
		c.Clock = monotonic
	}
	return c
}

// Server is the estimation service. Create with New; it is safe for
// concurrent use by any number of requests.
type Server struct {
	cfg     Config
	sem     chan struct{} // bounded worker pool
	nets    *lruCache     // input key -> *netEntry (shared, read-only)
	results *lruCache     // result key -> []byte (finished response bodies)
	flights *flightGroup  // in-flight computation per result key
	jobs    *jobStore     // async flow jobs

	reg      *obsv.Registry
	tel      *telemetry
	inflight *obsv.Gauge

	coalLeaders  *obsv.Counter // computations led on behalf of a herd
	coalHits     *obsv.Counter // requests served by attaching to a leader
	coalDetached *obsv.Counter // followers that gave up on their own deadline
}

// netEntry pairs a parsed network with its structural hash, computed once
// at parse time. The network is shared read-only; mutating users clone.
type netEntry struct {
	nw   *logic.Network
	hash string
}

// New builds a Server, enabling the process obsv registry so /metrics has
// something to report.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obsv.Enable()
	s := &Server{
		cfg:          cfg,
		sem:          make(chan struct{}, cfg.Workers),
		nets:         newLRU(cfg.NetworkCacheSize, reg.Counter("server.cache.net.hits"), reg.Counter("server.cache.net.misses")),
		results:      newLRU(cfg.ResultCacheSize, reg.Counter("server.cache.result.hits"), reg.Counter("server.cache.result.misses")),
		flights:      newFlightGroup(),
		reg:          reg,
		tel:          newTelemetry(cfg, reg),
		inflight:     reg.Gauge("server.inflight"),
		coalLeaders:  reg.Counter("server.coalesce.leaders"),
		coalHits:     reg.Counter("server.coalesce.hits"),
		coalDetached: reg.Counter("server.coalesce.detached"),
	}
	s.jobs = newJobStore(cfg, reg)
	return s
}

// Handler returns the routed HTTP handler for the service.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimate", s.handleEstimate)
	mux.HandleFunc("POST /v1/estimate:batch", s.handleBatch)
	mux.HandleFunc("POST /v1/flow", s.handleFlow)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/experiments/{id}", s.handleExperiment)
	mux.HandleFunc("GET /v1/circuits", s.handleCircuits)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.instrument(mux)
}

// apiError carries an HTTP status alongside the message.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// statusClientClosedRequest is nginx's 499: the client cancelled the
// request (closed the connection) before the server finished. It is a
// client disposition, not a server failure: telemetry.record counts it
// as a client abort, and being < 500 it stays out of server.errors and
// the availability SLO.
const statusClientClosedRequest = 499

// errorStatus maps an error to its HTTP status: explicit apiError
// status first, then deadline expiry to 504 (the server gave up on the
// computation) and client cancellation to 499. Queue-full produces a
// 503 apiError at the acquire site.
func errorStatus(err error) int {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae.status
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// writeError maps an error to a JSON error response. It only writes:
// telemetry.record accounts the status once the request finishes.
func writeError(w http.ResponseWriter, err error) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(errorStatus(err))
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// cachedResult is one result-cache entry: the finished response body
// plus its run-independent dispositions, kept out of the body itself so
// replayed responses stay byte-identical while headers and access-log
// lines can still report them.
type cachedResult struct {
	body     []byte
	degraded bool
}

// writeCached serves a response body with its cache and degraded
// dispositions in the X-Cache / X-Degraded headers — never in the body,
// which must stay byte-identical between a computed and a replayed
// response. The disposition is "hit" (result cache), "miss" (computed
// here) or "coalesced" (attached to a concurrent identical computation).
// Cached bodies are stored compact (no framing newline) so they embed
// verbatim as json.RawMessage in batch and job envelopes; the trailing
// newline is wire framing, added here.
//
// The headers are assigned by canonical key from shared, never-mutated
// value slices, skipping Header.Set's canonicalization and allocation.
// Behind the middleware the dispositions also go to the statusWriter,
// which the access log and telemetry read instead of the headers. The
// body write is a write span of the request in ctx, so a traced cache
// hit accounts for its time.
func writeCached(ctx context.Context, w http.ResponseWriter, res cachedResult, disposition string) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["X-Cache"] = cacheHeader[disposition]
	if res.degraded {
		h["X-Degraded"] = trueHeader
	}
	if sw, ok := w.(*statusWriter); ok {
		sw.cache, sw.degraded = disposition, res.degraded
	}
	_, sp := trace.Start(ctx, "write")
	w.Write(res.body)
	w.Write(newline)
	sp.End()
}

// Shared header values and the body's framing newline; never written to.
var (
	jsonContentType = []string{"application/json"}
	trueHeader      = []string{"true"}
	cacheHeader     = map[string][]string{"hit": {"hit"}, "miss": {"miss"}, "coalesced": {"coalesced"}}
	newline         = []byte("\n")
)

// resultFor is the shared serve-one-cacheable-result pipeline: result
// cache first, then the coalescing flight group, with compute run only
// by the elected leader (under the leader's own ctx — compute is
// responsible for acquiring a worker slot). The returned disposition is
// the X-Cache value. Follower semantics are per-request: a follower
// whose ctx dies detaches with its own ctx error and the leader keeps
// running; a follower whose leader fails retries the pipeline under its
// own still-live ctx (becoming the next leader if nobody beat it in).
//
// When tracing is on, a follower's wait for its leader is a
// coalesce.wait span and the leader's store into the result cache a
// cache.put span.
//
// A non-zero deadline is the request's: it bounds the leader's compute
// and a follower's wait. It is applied only after the cache misses, so a
// hit never builds the context and its timer; a zero deadline adds none
// beyond ctx's own.
func (s *Server) resultFor(ctx context.Context, key string, deadline time.Time, compute func(context.Context) (cachedResult, error)) (cachedResult, string, error) {
	if res, ok := s.results.Get(key); ok {
		return res.(cachedResult), "hit", nil
	}
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	for {
		f, leader := s.flights.join(key)
		if !leader {
			s.coalHits.Inc()
			_, wsp := trace.Start(ctx, "coalesce.wait")
			select {
			case <-f.done:
				wsp.End()
				if f.err == nil {
					return f.res, "coalesced", nil
				}
				// The leader failed on its own terms (its deadline, a
				// transient error). That error is not ours: retry under
				// our own ctx — unless ours is dead too.
				if err := ctx.Err(); err != nil {
					return cachedResult{}, "", err
				}
				if res, ok := s.results.Get(key); ok {
					return res.(cachedResult), "hit", nil
				}
				continue
			case <-ctx.Done():
				// Detach. The leader is NOT cancelled: other followers
				// (and the cache) still want its result.
				wsp.End()
				s.coalDetached.Inc()
				return cachedResult{}, "", ctx.Err()
			}
		}
		// Leader. Between our cache miss and winning leadership a previous
		// leader may have finished and populated the cache — recheck so a
		// key is computed at most once per cache lifetime.
		if res, ok := s.results.Get(key); ok {
			s.flights.finish(key, f, res.(cachedResult), nil)
			return res.(cachedResult), "hit", nil
		}
		s.coalLeaders.Inc()
		res, err := compute(ctx)
		if err == nil {
			_, psp := trace.Start(ctx, "cache.put")
			s.results.Put(key, res)
			psp.End()
		}
		s.flights.finish(key, f, res, err)
		return res, "miss", err
	}
}

// acquire claims a worker-pool slot, giving up when ctx expires while
// queued. Callers must release() on success. The time spent queued is
// recorded in the endpoint's queue-wait histogram and, when tracing is
// on, as a queue.wait span.
func (s *Server) acquire(ctx context.Context, ep string) error {
	_, sp := trace.Start(ctx, "queue.wait")
	start := s.cfg.Clock()
	err := s.acquireSlot(ctx)
	s.tel.eps[ep].queue.Observe(time.Duration(s.cfg.Clock() - start).Microseconds())
	sp.End()
	return err
}

// acquireSlot takes a free slot even when ctx has already ended: 503
// means the request gave up queued behind a full pool, so a request
// that never queued reports its expired deadline from the computation
// (504) instead of from a select that picks between two ready cases at
// random.
func (s *Server) acquireSlot(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
	default:
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return &apiError{status: http.StatusServiceUnavailable,
					msg: "server busy: deadline expired while queued for a worker"}
			}
			return ctx.Err()
		}
	}
	s.inflight.Add(1)
	return nil
}

func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
}

// maxBodyBytes bounds request bodies, BLIF upload included.
const maxBodyBytes = 8 << 20

// decodeJSON reads a bounded request body into dst, rejecting unknown
// fields so typos in option names fail loudly instead of being ignored.
// When the request is traced, the read and decode are a "decode" span.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	_, sp := trace.Start(r.Context(), "decode")
	defer sp.End()
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("bad request body: %v", err)
	}
	return nil
}

// timeoutFor computes the request deadline: the request's timeout_ms
// clamped to MaxTimeout, or DefaultTimeout when absent.
func (s *Server) timeoutFor(ms int) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// circuitRef is the shared circuit-selection portion of request bodies.
type circuitRef struct {
	Circuit string `json:"circuit,omitempty"` // generator name (see /v1/circuits)
	BLIF    string `json:"blif,omitempty"`    // inline BLIF text
}

// resolveNetwork returns the shared cached network for a request's
// circuit reference, parsing and hashing on first sight. The cache key is
// the input itself (generator name, or digest of the BLIF text); the
// structural hash is computed once and reused as the response-cache key
// component. Callers must treat the returned network as immutable. When
// ctx carries a trace, the lookup/parse is a "resolve" span annotated
// with the cache disposition.
func (s *Server) resolveNetwork(ctx context.Context, ref circuitRef) (*netEntry, error) {
	_, sp := trace.Start(ctx, "resolve")
	defer sp.End()
	var key string
	switch {
	case ref.Circuit != "" && ref.BLIF != "":
		return nil, badRequest(`specify "circuit" or "blif", not both`)
	case ref.Circuit != "":
		key = "gen:" + ref.Circuit
	case ref.BLIF != "":
		sum := sha256.Sum256([]byte(ref.BLIF))
		key = "blif:" + hex.EncodeToString(sum[:])
	default:
		return nil, badRequest(`specify "circuit" or "blif"`)
	}
	if sp != nil {
		sp.SetAttr("key", key)
	}
	if v, ok := s.nets.Get(key); ok {
		sp.SetAttr("cache", "hit")
		return v.(*netEntry), nil
	}
	sp.SetAttr("cache", "miss")
	var nw *logic.Network
	var err error
	if ref.Circuit != "" {
		nw, err = circuits.Named(ref.Circuit)
	} else {
		nw, err = logic.ReadBLIF(strings.NewReader(ref.BLIF))
	}
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if err := nw.Check(); err != nil {
		return nil, badRequest("%v", err)
	}
	ent := &netEntry{nw: nw, hash: logic.StructuralHash(nw)}
	s.nets.Put(key, ent)
	return ent, nil
}

// budgetFor merges request budget fields with the server default.
func (s *Server) budgetFor(maxNodes int, maxSteps int64) bdd.Budget {
	if maxNodes == 0 && maxSteps == 0 {
		return s.cfg.DefaultBudget
	}
	return bdd.Budget{MaxNodes: maxNodes, MaxSteps: maxSteps}
}

// ---------------------------------------------------------------------------
// POST /v1/estimate

// EstimateRequest selects a circuit and an activity estimator.
type EstimateRequest struct {
	circuitRef
	// Estimator is one of exact (BDD, degrades to Monte Carlo on budget),
	// propagated, simulated (timed, glitch-aware) or packed (zero-delay
	// bit-parallel; combinational only). Default exact.
	Estimator string `json:"estimator,omitempty"`
	// Vectors drives the simulated/packed estimators and the exact
	// estimator's Monte Carlo fallback (default 1000, max 65536).
	Vectors int `json:"vectors,omitempty"`
	// Seed makes every stochastic path reproducible (default 1; a
	// negative seed is rejected).
	Seed int64 `json:"seed,omitempty"`
	// P1 is the one-probability applied to every primary input
	// (default 0.5).
	P1 *float64 `json:"p1,omitempty"`
	// BDDMaxNodes/BDDMaxSteps bound the exact estimator's BDD; when the
	// budget trips, the response is a seeded Monte Carlo estimate with
	// "degraded": true. Both zero means the server default.
	BDDMaxNodes int   `json:"bdd_max_nodes,omitempty"`
	BDDMaxSteps int64 `json:"bdd_max_steps,omitempty"`
	// TimeoutMS bounds the whole request (clamped to the server max).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// PowerJSON is the Eqn. 1 breakdown of a power report.
type PowerJSON struct {
	Total          float64 `json:"total"`
	Switching      float64 `json:"switching"`
	ShortCircuit   float64 `json:"short_circuit"`
	Leakage        float64 `json:"leakage"`
	SwitchingShare float64 `json:"switching_share"`
	Degraded       bool    `json:"degraded"`
	DegradeReason  string  `json:"degrade_reason,omitempty"`
}

func powerJSON(rep power.Report) PowerJSON {
	return PowerJSON{
		Total:          rep.Total(),
		Switching:      rep.Switching,
		ShortCircuit:   rep.ShortCkt,
		Leakage:        rep.Leakage,
		SwitchingShare: rep.SwitchingShare(),
		Degraded:       rep.Degraded,
		DegradeReason:  rep.DegradeReason,
	}
}

// NodePowerJSON is one row of the top-consumers list.
type NodePowerJSON struct {
	Name     string  `json:"name"`
	Cap      float64 `json:"cap"`
	Activity float64 `json:"activity"`
	Power    float64 `json:"power"`
}

// EstimateResponse is the /v1/estimate body. It deliberately excludes
// anything run-dependent (timings, cache state) so identical requests get
// byte-identical bodies.
type EstimateResponse struct {
	Circuit   string          `json:"circuit"`
	Hash      string          `json:"hash"`
	Estimator string          `json:"estimator"`
	Gates     int             `json:"gates"`
	Depth     int             `json:"depth"`
	FlipFlops int             `json:"flip_flops"`
	Power     PowerJSON       `json:"power"`
	Top       []NodePowerJSON `json:"top_consumers"`
	// SpuriousFraction is the glitch share of simulated transitions; only
	// present for the simulated estimator.
	SpuriousFraction *float64 `json:"spurious_fraction,omitempty"`
}

const maxVectors = 1 << 16

// estimators are the power.Estimate methods the API serves.
var estimators = []string{"exact", "propagated", "simulated", "packed"}

// estimateSpec is a validated, default-filled EstimateRequest: everything
// estimateResult needs, normalized so equal specs produce equal cache keys.
type estimateSpec struct {
	ref       circuitRef
	estimator string
	vectors   int
	seed      int64
	p1        float64
	budget    bdd.Budget
	timeout   time.Duration
}

// validateEstimate applies defaults and validates an EstimateRequest.
// Shared by /v1/estimate and each /v1/estimate:batch item so both
// surfaces accept exactly the same requests.
func (s *Server) validateEstimate(req EstimateRequest) (estimateSpec, error) {
	spec := estimateSpec{ref: req.circuitRef, estimator: req.Estimator, vectors: req.Vectors, seed: req.Seed}
	if spec.estimator == "" {
		spec.estimator = "exact"
	}
	if !slices.Contains(estimators, spec.estimator) {
		return spec, badRequest("unknown estimator %q (want exact, propagated, simulated or packed)", spec.estimator)
	}
	if spec.vectors <= 0 {
		spec.vectors = 1000
	}
	if spec.vectors > maxVectors {
		return spec, badRequest("vectors %d exceeds the maximum %d", spec.vectors, maxVectors)
	}
	var err error
	if spec.seed, err = seedFor(spec.seed); err != nil {
		return spec, err
	}
	spec.p1 = 0.5
	if req.P1 != nil {
		spec.p1 = *req.P1
	}
	if spec.p1 < 0 || spec.p1 > 1 {
		return spec, badRequest("p1 %g outside [0,1]", spec.p1)
	}
	spec.budget, spec.timeout, err = s.limitsFor(req.BDDMaxNodes, req.BDDMaxSteps, req.TimeoutMS)
	return spec, err
}

// checkLimits rejects a negative bdd_max_nodes, bdd_max_steps or
// timeout_ms. Zero asks for the server default; bdd.Budget would read a
// negative limit as none, bypassing the operator's default budget.
func checkLimits(maxNodes int, maxSteps int64, timeoutMS int) error {
	switch {
	case maxNodes < 0:
		return badRequest("bdd_max_nodes %d is negative (want a positive limit, or 0 for the server default)", maxNodes)
	case maxSteps < 0:
		return badRequest("bdd_max_steps %d is negative (want a positive limit, or 0 for the server default)", maxSteps)
	case timeoutMS < 0:
		return badRequest("timeout_ms %d is negative (want a positive timeout, or 0 for the server default)", timeoutMS)
	}
	return nil
}

// limitsFor checks a request's bdd_max_nodes, bdd_max_steps and
// timeout_ms and returns the BDD budget and the timeout they ask for.
func (s *Server) limitsFor(maxNodes int, maxSteps int64, timeoutMS int) (bdd.Budget, time.Duration, error) {
	if err := checkLimits(maxNodes, maxSteps, timeoutMS); err != nil {
		return bdd.Budget{}, 0, err
	}
	return s.budgetFor(maxNodes, maxSteps), s.timeoutFor(timeoutMS), nil
}

// seedFor applies the default seed 1 to a request's seed and rejects a
// negative one.
func seedFor(seed int64) (int64, error) {
	switch {
	case seed < 0:
		return seed, badRequest("seed %d is negative (want a positive seed, or 0 for the default 1)", seed)
	case seed == 0:
		return 1, nil
	}
	return seed, nil
}

// estimateKey is the result-cache (and coalescing) key for an estimate.
// The deadline (timeout_ms) is deliberately NOT part of the key: it only
// decides whether the computation finishes, never what it computes, and
// aborted computations are not cached. The key reads
// "estimate|<hash>|est=…;v=…;seed=…;p1=…;bn=…;bs=…", with p1 in %g's
// shortest form ('g', -1).
func estimateKey(hash string, spec estimateSpec) string {
	var buf [160]byte
	b := append(buf[:0], "estimate|"...)
	b = append(b, hash...)
	b = append(b, "|est="...)
	b = append(b, spec.estimator...)
	b = append(b, ";v="...)
	b = strconv.AppendInt(b, int64(spec.vectors), 10)
	b = append(b, ";seed="...)
	b = strconv.AppendInt(b, spec.seed, 10)
	b = append(b, ";p1="...)
	b = strconv.AppendFloat(b, spec.p1, 'g', -1, 64)
	b = appendBudget(b, spec.budget)
	return string(b)
}

// appendBudget appends a key's ";bn=<nodes>;bs=<steps>" component.
func appendBudget(b []byte, budget bdd.Budget) []byte {
	b = append(b, ";bn="...)
	b = strconv.AppendInt(b, int64(budget.MaxNodes), 10)
	b = append(b, ";bs="...)
	return strconv.AppendInt(b, budget.MaxSteps, 10)
}

// estimateResult serves one resolved estimate through the shared
// cache/coalesce/compute pipeline. The worker-pool slot is acquired
// inside the compute closure, so cache hits and coalesced followers
// never occupy (or queue for) a worker.
func (s *Server) estimateResult(ctx context.Context, deadline time.Time, ep string, ent *netEntry, spec estimateSpec) (cachedResult, string, error) {
	return s.resultFor(ctx, estimateKey(ent.hash, spec), deadline, func(ctx context.Context) (cachedResult, error) {
		if err := s.acquire(ctx, ep); err != nil {
			return cachedResult{}, err
		}
		defer s.release()
		cctx, csp := trace.Start(ctx, "compute.estimate")
		if csp != nil {
			csp.SetAttr("estimator", spec.estimator)
			csp.SetAttr("circuit", ent.nw.Name)
		}
		resp, err := s.computeEstimate(cctx, ent, spec)
		csp.End()
		if err != nil {
			return cachedResult{}, err
		}
		_, esp := trace.Start(ctx, "encode")
		body, err := json.Marshal(resp)
		esp.End()
		if err != nil {
			return cachedResult{}, err
		}
		return cachedResult{body: body, degraded: resp.Power.Degraded}, nil
	})
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	spec, err := s.validateEstimate(req)
	if err != nil {
		writeError(w, err)
		return
	}
	s.serveResult(w, r, spec.ref, spec.timeout, func(deadline time.Time, ent *netEntry) (cachedResult, string, error) {
		return s.estimateResult(r.Context(), deadline, "estimate", ent, spec)
	})
}

// serveResult resolves a request's network and writes the result that
// result computes or reads from the cache for it, or the error. The
// deadline runs from here, but its context is built only on a
// result-cache miss (resultFor); resolving never blocks on it.
func (s *Server) serveResult(w http.ResponseWriter, r *http.Request, ref circuitRef, timeout time.Duration,
	result func(deadline time.Time, ent *netEntry) (cachedResult, string, error)) {
	deadline := time.Now().Add(timeout)
	ent, err := s.resolveNetwork(r.Context(), ref)
	if err != nil {
		writeError(w, err)
		return
	}
	res, disp, err := result(deadline, ent)
	if err != nil {
		writeError(w, err)
		return
	}
	writeCached(r.Context(), w, res, disp)
}

// computeEstimate runs one estimator over a shared (never mutated)
// network. Everything here is deterministic given the arguments: random
// streams are seeded, a simulated estimate is one sequential simulator
// run on the worker slot the request holds, and the budget-degraded path
// uses a seeded Monte Carlo fallback.
func (s *Server) computeEstimate(ctx context.Context, ent *netEntry, spec estimateSpec) (*EstimateResponse, error) {
	nw := ent.nw
	method := power.Method(spec.estimator)
	if method == power.MethodPacked && len(nw.FFs()) > 0 {
		return nil, badRequest("packed estimator handles combinational networks only (circuit has %d flip-flops)", len(nw.FFs()))
	}
	est := power.Spec{Method: method, Params: power.DefaultParams(), InputProb: power.Probabilities{},
		ExactOptions: power.ExactOptions{Budget: spec.budget, MCVectors: spec.vectors, MCSeed: spec.seed}}
	for _, pi := range nw.PIs() {
		est.InputProb[pi] = spec.p1
	}
	if len(nw.FFs()) > 0 {
		seq, err := power.SequentialProbabilities(nw, rand.New(rand.NewSource(spec.seed)), 2000, spec.p1)
		if err != nil {
			return nil, err
		}
		est.InputProb = seq
	}
	if method == power.MethodSimulated || method == power.MethodPacked {
		est.Vectors = sim.RandomStimulus(rand.New(rand.NewSource(spec.seed)), spec.vectors, len(nw.PIs()), spec.p1)
	}
	rep, err := power.Estimate(ctx, nw, est)
	if err != nil {
		return nil, err
	}
	var spurious *float64
	if method == power.MethodSimulated {
		f := rep.Totals.SpuriousFraction()
		spurious = &f
	}
	st := nw.Stats()
	resp := &EstimateResponse{
		Circuit:          nw.Name,
		Hash:             ent.hash,
		Estimator:        spec.estimator,
		Gates:            st.Gates,
		Depth:            st.Levels,
		FlipFlops:        st.FFs,
		Power:            powerJSON(rep),
		Top:              []NodePowerJSON{},
		SpuriousFraction: spurious,
	}
	for _, np := range rep.TopConsumers(5) {
		resp.Top = append(resp.Top, NodePowerJSON{Name: np.Name, Cap: np.Cap, Activity: np.Activity, Power: np.Total()})
	}
	return resp, nil
}

// ---------------------------------------------------------------------------
// POST /v1/flow

// FlowRequest selects a circuit and an optimization flow.
type FlowRequest struct {
	circuitRef
	// Flow is a core.StandardFlows name: area, lowpower, glitch or
	// bddmux.
	Flow string `json:"flow"`
	// Seed drives the flow context's vector generation (default 1; a
	// negative seed is rejected).
	Seed int64 `json:"seed,omitempty"`
	// Verify enables per-pass equivalence checking (default true; only
	// effective for combinational networks with <= 16 inputs).
	Verify      *bool `json:"verify,omitempty"`
	BDDMaxNodes int   `json:"bdd_max_nodes,omitempty"`
	BDDMaxSteps int64 `json:"bdd_max_steps,omitempty"`
	TimeoutMS   int   `json:"timeout_ms,omitempty"`
	// Incremental measures the trajectory with the fast incremental
	// engines (propagated probabilities + packed zero-delay Monte Carlo,
	// dirty-cone reuse between passes): exact_p/sim_p change meaning
	// accordingly and spurious is 0, so the flag is part of the result
	// cache key. The trajectory is deterministic and bit-identical to a
	// from-scratch recomputation at every step; sequential circuits fall
	// back to the classic measurement.
	Incremental bool `json:"incremental,omitempty"`
}

// SnapshotJSON is one core.Snapshot row. Pass timings are intentionally
// absent (they live only in the request's trace spans): they vary run to
// run and would break the byte-identity contract.
type SnapshotJSON struct {
	Label     string  `json:"label"`
	Gates     int     `json:"gates"`
	Depth     int     `json:"depth"`
	FlipFlops int     `json:"flip_flops"`
	ExactP    float64 `json:"exact_p"`
	SimP      float64 `json:"sim_p"`
	Spurious  float64 `json:"spurious"`
	Degraded  bool    `json:"degraded"`
}

// FlowResponse is the /v1/flow body: the trajectory of the flow over the
// circuit, plus the structural hash before (cached network) and after
// (the mutated clone — the cached network itself is never touched).
type FlowResponse struct {
	Circuit   string         `json:"circuit"`
	Flow      string         `json:"flow"`
	Hash      string         `json:"hash"`
	FinalHash string         `json:"final_hash"`
	Passes    []string       `json:"passes"`
	Steps     []SnapshotJSON `json:"steps"`
	// SimPowerRatio is final/initial simulated power (1.0 = unchanged).
	SimPowerRatio float64 `json:"sim_power_ratio"`
}

// flowSpec is a validated, default-filled FlowRequest.
type flowSpec struct {
	ref         circuitRef
	flow        core.Flow
	seed        int64
	verify      bool
	budget      bdd.Budget
	incremental bool
	timeout     time.Duration
	// hasTimeout records whether the request named timeout_ms: async jobs
	// without one run under MaxTimeout instead of DefaultTimeout.
	hasTimeout bool
}

// validateFlow applies defaults and validates a FlowRequest. Shared by
// the sync handler and the async job submission path.
func (s *Server) validateFlow(req FlowRequest) (flowSpec, error) {
	spec := flowSpec{ref: req.circuitRef, seed: req.Seed, incremental: req.Incremental}
	flows := core.StandardFlows()
	flow, ok := flows[req.Flow]
	if !ok {
		names := make([]string, 0, len(flows))
		for n := range flows {
			names = append(names, n)
		}
		sort.Strings(names)
		return spec, badRequest("unknown flow %q (want one of %s)", req.Flow, strings.Join(names, ", "))
	}
	spec.flow = flow
	var err error
	if spec.seed, err = seedFor(spec.seed); err != nil {
		return spec, err
	}
	spec.verify = true
	if req.Verify != nil {
		spec.verify = *req.Verify
	}
	spec.hasTimeout = req.TimeoutMS > 0
	spec.budget, spec.timeout, err = s.limitsFor(req.BDDMaxNodes, req.BDDMaxSteps, req.TimeoutMS)
	return spec, err
}

// flowKey is the result-cache (and coalescing) key for a flow run.
// It reads "flow|<hash>|flow=…;seed=…;verify=…;bn=…;bs=…;incr=…".
func flowKey(hash string, spec flowSpec) string {
	var buf [160]byte
	b := append(buf[:0], "flow|"...)
	b = append(b, hash...)
	b = append(b, "|flow="...)
	b = append(b, spec.flow.Name...)
	b = append(b, ";seed="...)
	b = strconv.AppendInt(b, spec.seed, 10)
	b = append(b, ";verify="...)
	b = strconv.AppendBool(b, spec.verify)
	b = appendBudget(b, spec.budget)
	b = append(b, ";incr="...)
	b = strconv.AppendBool(b, spec.incremental)
	return string(b)
}

// flowResult serves one resolved flow run through the shared
// cache/coalesce/compute pipeline; sync requests and async jobs both
// land here, so a poll-completed job seeds the cache for later sync
// requests (and vice versa). deadline is resultFor's.
func (s *Server) flowResult(ctx context.Context, deadline time.Time, ent *netEntry, spec flowSpec) (cachedResult, string, error) {
	return s.resultFor(ctx, flowKey(ent.hash, spec), deadline, func(ctx context.Context) (cachedResult, error) {
		if err := s.acquire(ctx, "flow"); err != nil {
			return cachedResult{}, err
		}
		defer s.release()
		// Flows rewrite the network in place: work on a clone so the cached
		// network stays pristine for every other request.
		nw := ent.nw.Clone()
		fctx := core.NewContext(nw, spec.seed)
		fctx.Verify = spec.verify
		fctx.ExactBudget = spec.budget
		fctx.Incremental = spec.incremental
		cctx, csp := trace.Start(ctx, "compute.flow")
		if csp != nil {
			csp.SetAttr("flow", spec.flow.Name)
			csp.SetAttr("circuit", nw.Name)
		}
		frep, err := core.RunFlowCtx(cctx, nw, spec.flow, fctx)
		csp.End()
		if err != nil {
			return cachedResult{}, err
		}
		finalHash := logic.StructuralHash(nw)
		_, esp := trace.Start(ctx, "encode")
		defer esp.End()
		resp := &FlowResponse{
			Circuit:   nw.Name,
			Flow:      spec.flow.Name,
			Hash:      ent.hash,
			FinalHash: finalHash,
			Passes:    spec.flow.Passes,
			Steps:     []SnapshotJSON{},
		}
		for _, snap := range frep.Steps {
			resp.Steps = append(resp.Steps, SnapshotJSON{
				Label: snap.Label, Gates: snap.Gates, Depth: snap.Depth,
				FlipFlops: snap.FlipFlops, ExactP: snap.ExactP, SimP: snap.SimP,
				Spurious: snap.Spurious, Degraded: snap.Degraded,
			})
		}
		if initial := frep.Initial().SimP; initial > 0 {
			resp.SimPowerRatio = frep.Final().SimP / initial
		}
		body, err := json.Marshal(resp)
		if err != nil {
			return cachedResult{}, err
		}
		degraded := false
		for _, st := range resp.Steps {
			if st.Degraded {
				degraded = true
				break
			}
		}
		return cachedResult{body: body, degraded: degraded}, nil
	})
}

func (s *Server) handleFlow(w http.ResponseWriter, r *http.Request) {
	var req FlowRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	spec, err := s.validateFlow(req)
	if err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("async") == "1" {
		s.submitFlowJob(w, r, spec)
		return
	}
	s.serveResult(w, r, spec.ref, spec.timeout, func(deadline time.Time, ent *netEntry) (cachedResult, string, error) {
		return s.flowResult(r.Context(), deadline, ent, spec)
	})
}

// ---------------------------------------------------------------------------
// GET /v1/experiments/{id}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var ex *experiments.Experiment
	for _, e := range experiments.All() {
		if e.ID == id {
			e := e
			ex = &e
			break
		}
	}
	if ex == nil {
		writeError(w, &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown experiment %q", id)})
		return
	}
	deadline := time.Now().Add(s.cfg.MaxTimeout)
	cr, disp, err := s.resultFor(r.Context(), "experiment|"+id, deadline, func(ctx context.Context) (cachedResult, error) {
		if err := s.acquire(ctx, "experiment"); err != nil {
			return cachedResult{}, err
		}
		defer s.release()
		cctx, csp := trace.Start(ctx, "compute.experiment")
		if csp != nil {
			csp.SetAttr("id", id)
		}
		res := experiments.RunAllCtx(cctx, []experiments.Experiment{*ex}, 1, 0)
		csp.End()
		if res[0].Skipped || res[0].Err != nil {
			return cachedResult{}, res[0].Err
		}
		_, esp := trace.Start(ctx, "encode")
		body, err := json.Marshal(map[string]any{"id": id, "table": res[0].Table})
		esp.End()
		if err != nil {
			return cachedResult{}, err
		}
		return cachedResult{body: body}, nil
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeCached(r.Context(), w, cr, disp)
}

// ---------------------------------------------------------------------------
// Introspection endpoints

func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	flows := core.StandardFlows()
	flowNames := make([]string, 0, len(flows))
	for n := range flows {
		flowNames = append(flowNames, n)
	}
	sort.Strings(flowNames)
	expIDs := make([]string, 0, 20)
	for _, e := range experiments.All() {
		expIDs = append(expIDs, e.ID)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"circuits":    circuits.GeneratorNames(),
		"flows":       flowNames,
		"estimators":  estimators,
		"experiments": expIDs,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

// handleMetrics dumps the process obsv registry: every counter, gauge,
// timer and histogram, including the server.* family, the per-endpoint
// server.http.* latency/queue histograms and the estimator-internal
// metrics (power.exact.degraded and friends). The default is the JSON
// export; ?format=prom switches to Prometheus text exposition with
// dotted names sanitized to underscore form (obsv.WritePrometheus).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obsv.Default().WritePrometheus(w); err != nil {
			return // the write to the client failed: nothing more can reach it
		}
		// Fold the rolling-window/SLO series in after the registry so
		// one scrape sees both the cumulative and the windowed picture.
		writeStatusProm(w, s.statusSnapshot())
		return
	}
	body, err := json.MarshalIndent(obsv.Default().Export(), "", "  ")
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
