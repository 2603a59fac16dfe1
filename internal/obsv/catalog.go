package obsv

import (
	"sort"
	"strings"
)

// MetricInfo is one metric family's exposition metadata: the
// Prometheus type its registered kind maps to and a one-line help
// text. The catalog below is the single source of truth — DESIGN.md's
// metric-name table mirrors it (TestDesignTableMatchesCatalog),
// WritePrometheus emits it as `# HELP`/`# TYPE` lines,
// TestCatalogTypesMatchRegisteredKinds pins the declared types to the
// kinds the code actually registers, internal/server's
// TestServedMetricsAreCatalogued and the root TestSuiteMetricsAreCatalogued
// fail on any served or experiment-suite name without a row, and
// internal/server's TestCatalogRowsAreEmitted fails on a row that
// neither emits.
type MetricInfo struct {
	// Type is the Prometheus family type: "counter", "gauge" or
	// "histogram".
	Type string
	Help string
}

// catalog maps metric names to their metadata. A name segment of "*"
// matches exactly one dotted segment, so per-endpoint and per-pass
// families need a single row (`server.http.*.latency_us`,
// `lpflow.pass.*.us`).
var catalog = map[string]MetricInfo{
	"sim.events":    {Type: "counter", Help: "Gate-output transitions processed by the event-driven simulator."},
	"sim.spurious":  {Type: "counter", Help: "Glitch transitions (events minus useful transitions)."},
	"sim.cycles":    {Type: "counter", Help: "Clock cycles simulated."},
	"sim.queue.hwm": {Type: "gauge", Help: "High-water mark of pending event-queue evaluations."},
	"sim.settle":    {Type: "histogram", Help: "Per-cycle settle times, log2 buckets."},

	"bdd.unique.hits":     {Type: "counter", Help: "Unique-table hits in the ROBDD mk operation."},
	"bdd.unique.misses":   {Type: "counter", Help: "Unique-table misses in the ROBDD mk operation."},
	"bdd.ite.hits":        {Type: "counter", Help: "ITE computed-cache hits."},
	"bdd.ite.misses":      {Type: "counter", Help: "ITE computed-cache misses."},
	"bdd.nodes":           {Type: "gauge", Help: "High-water BDD node count per manager."},
	"bdd.budget.exceeded": {Type: "counter", Help: "BDD work budgets tripped (node or step cap hit)."},
	"bdd.reorder.runs":    {Type: "counter", Help: "Sifting reorder passes run over a BDD manager."},
	"bdd.reorder.swaps":   {Type: "counter", Help: "Adjacent-level swaps performed while sifting."},
	"bdd.reorder.saved":   {Type: "counter", Help: "Live BDD nodes eliminated by sifting reorder passes."},

	"power.exact.nodes":     {Type: "counter", Help: "Nodes evaluated by the exact (BDD) estimator."},
	"power.exact.degraded":  {Type: "counter", Help: "Exact estimates degraded to seeded Monte Carlo on budget trip."},
	"power.exact.reordered": {Type: "counter", Help: "Exact estimates rescued by the reorder-retry rung before Monte Carlo."},
	"power.prop.nodes":      {Type: "counter", Help: "Nodes propagated by the independence-assumption estimator."},

	"dontcare.gates.visited":   {Type: "counter", Help: "Gates the don't-care pass visited (recorded once per pass)."},
	"dontcare.gates.witnessed": {Type: "counter", Help: "Visited gates whose empty don't-care set simulation witnessed, skipping the exact BDD analysis."},

	"flow.incr.measures":        {Type: "counter", Help: "Measurements taken by incremental flow estimators (cone splices and full recomputes)."},
	"flow.incr.full_recomputes": {Type: "counter", Help: "Incremental measurements that fell back to a from-scratch recompute."},
	"flow.incr.cone_nodes":      {Type: "counter", Help: "Dirty-cone nodes re-derived by incremental measurements."},
	"flow.incr.clean_nodes":     {Type: "counter", Help: "Live combinational nodes reused from the carried baseline."},
	"flow.incr.reuse_frac":      {Type: "gauge", Help: "Reused fraction of the last incremental measurement: clean / (cone + clean)."},

	"lpflow.pass.*.us":      {Type: "histogram", Help: "Wall time of one optimization flow pass in microseconds, log2 buckets."},
	"lpflow.measure.reused": {Type: "counter", Help: "Flow steps that reused the previous snapshot because the pass left the network byte-identical."},

	"server.requests":            {Type: "counter", Help: "HTTP requests served, every endpoint."},
	"server.errors":              {Type: "counter", Help: "Requests answered with a server error, status >= 500 (client errors and 499 aborts excluded)."},
	"server.client_aborts":       {Type: "counter", Help: "Requests abandoned by the client (ctx cancelled, answered 499); not an availability SLO bad event."},
	"server.inflight":            {Type: "gauge", Help: "Heavy computations currently holding a worker slot."},
	"server.cache.net.hits":      {Type: "counter", Help: "Parsed-network cache hits."},
	"server.cache.net.misses":    {Type: "counter", Help: "Parsed-network cache misses."},
	"server.cache.result.hits":   {Type: "counter", Help: "Response-body cache hits."},
	"server.cache.result.misses": {Type: "counter", Help: "Response-body cache misses."},
	"server.http.*.latency_us":   {Type: "histogram", Help: "Per-endpoint request latency in microseconds, log2 buckets."},
	"server.http.*.queue_us":     {Type: "histogram", Help: "Per-endpoint worker-pool queue wait in microseconds."},
	"server.http.*.inflight":     {Type: "gauge", Help: "Requests currently being served, per endpoint."},
	"server.trace.slow_dumps":    {Type: "counter", Help: "Slow-request span trees dumped as Chrome trace JSON."},
	"server.trace.dump.errors":   {Type: "counter", Help: "Failed slow-trace dumps (never fatal to serving)."},

	// Request coalescing (singleflight on the result-cache key).
	"server.coalesce.leaders":  {Type: "counter", Help: "Computations led on behalf of a concurrent herd (one per flight)."},
	"server.coalesce.hits":     {Type: "counter", Help: "Requests served by attaching to an in-flight identical computation."},
	"server.coalesce.detached": {Type: "counter", Help: "Coalesced followers that gave up on their own deadline while the leader kept computing."},

	// Batch estimation (POST /v1/estimate:batch).
	"server.batch.items":       {Type: "counter", Help: "Estimate items received inside batch envelopes."},
	"server.batch.dedup":       {Type: "counter", Help: "Batch items folded into another item with the same result-cache key."},
	"server.batch.item_errors": {Type: "counter", Help: "Batch items that failed individually (the envelope still returns 200)."},

	// Async flow jobs (POST /v1/flow?async=1, GET /v1/jobs/{id}).
	"server.jobs.submitted": {Type: "counter", Help: "Async flow jobs accepted (202)."},
	"server.jobs.completed": {Type: "counter", Help: "Async jobs that reached the done state."},
	"server.jobs.failed":    {Type: "counter", Help: "Async jobs that ended in the error state."},
	"server.jobs.rejected":  {Type: "counter", Help: "Async submissions refused because every job slot was queued or running (503)."},
	"server.jobs.evicted":   {Type: "counter", Help: "Finished jobs dropped by TTL expiry or capacity eviction."},
	"server.jobs.active":    {Type: "gauge", Help: "Jobs currently resident in the bounded job store."},

	// Rolling-window status series (GET /v1/status and the rows folded
	// into /metrics?format=prom). These are labeled gauges written by
	// internal/server from window snapshots, not registry metrics; they
	// live here so HELP text and DESIGN.md share one source of truth.
	"server.window.requests":          {Type: "gauge", Help: "Requests inside the rolling window, per endpoint."},
	"server.window.request_rate":      {Type: "gauge", Help: "Windowed request rate in requests per second, per endpoint."},
	"server.window.errors":            {Type: "gauge", Help: "5xx responses inside the rolling window, per endpoint."},
	"server.window.latency_us":        {Type: "gauge", Help: "Windowed latency quantiles in microseconds, per endpoint (quantile label)."},
	"server.window.degraded_fraction": {Type: "gauge", Help: "Fraction of windowed requests answered degraded, per endpoint."},
	"server.window.cache_hit_ratio":   {Type: "gauge", Help: "Result-cache hit ratio over the window, per endpoint."},
	"server.slo.burn":                 {Type: "gauge", Help: "Error-budget burn rate per objective and horizon (1 = budget consumed exactly at its sustained limit)."},
	"server.slo.state":                {Type: "gauge", Help: "Objective state: 0 ok, 1 warn, 2 breach."},
}

// LookupMetricInfo returns the catalog entry for a metric name: an
// exact match first, then the unique pattern whose "*" segments cover
// the name. Unknown names return ok=false — exposition still works,
// just without a HELP line.
func LookupMetricInfo(name string) (MetricInfo, bool) {
	if mi, ok := catalog[name]; ok {
		return mi, true
	}
	parts := strings.Split(name, ".")
	for pat, mi := range catalog {
		if !strings.Contains(pat, "*") {
			continue
		}
		if matchSegments(strings.Split(pat, "."), parts) {
			return mi, true
		}
	}
	return MetricInfo{}, false
}

// matchSegments reports whether every pattern segment equals the
// corresponding name segment, with "*" matching any single segment.
func matchSegments(pat, name []string) bool {
	if len(pat) != len(name) {
		return false
	}
	for i := range pat {
		if pat[i] != "*" && pat[i] != name[i] {
			return false
		}
	}
	return true
}

// CatalogNames returns every catalog key, sorted — for tests and for
// keeping DESIGN.md's table in sync.
func CatalogNames() []string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// promHelpEscape escapes a HELP text per the exposition format:
// backslash and newline only.
func promHelpEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
