package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// replayReq is one request of the traced replay: a single estimate (batch
// items are replayed one by one), a flow, or a reproduce suite.
type replayReq struct {
	class string
	path  string
	body  []byte
	est   *server.EstimateRequest
	flow  *server.FlowRequest
	suite bool
}

func replayRequests(o *op) []replayReq {
	switch {
	case o.suite:
		return []replayReq{{class: "suite", suite: true}}
	case o.flow != nil:
		return []replayReq{{class: o.class, path: o.path, body: o.body, flow: o.flow}}
	}
	out := make([]replayReq, len(o.items))
	for i := range o.items {
		q := &o.items[i]
		out[i] = replayReq{class: estimateClass(*q), path: "/v1/estimate", body: mustJSON(*q), est: q}
	}
	return out
}

// exec re-executes one replay request and returns its body (nil for a
// suite, whose tables are checked against the golden instead).
func (rp *replayer) exec(rq replayReq, suite []experiments.Experiment, golden map[string]string) ([]byte, error) {
	switch {
	case rq.est != nil:
		return rp.estimate(context.Background(), *rq.est)
	case rq.flow != nil:
		return rp.flow(context.Background(), *rq.flow)
	}
	for _, ex := range suite {
		if err := rp.t.run("experiments."+ex.ID, func() error {
			t, err := ex.Run()
			if err == nil && t.Format() != golden[ex.ID] {
				err = fmt.Errorf("experiment %s: table differs from the golden", ex.ID)
			}
			return err
		}); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func experimentLayers() []string {
	var out []string
	for _, ex := range experiments.All() {
		out = append(out, "experiments."+ex.ID)
	}
	return out
}

// replayStats is what a traced replay measured.
type replayStats struct {
	reqs        []replayedReq
	failed      int
	onNs, offNs int64 // direct re-execution time with spans on and off
	counts      replayCounts
}

// replay walks a deterministic prefix of the workload's requests, skipping
// repeats, until the cap or the time limit. Each request is re-executed
// directly twice, with spans on and off in alternating order, and then
// goes to the idle server twice, as a miss and then as a hit; both direct
// bodies must equal the served one.
func replay(w *workload, seed int64, in *instance, limit time.Duration, golden map[string]string, t *tracer) replayStats {
	deadline := time.Now().Add(limit)
	on, off := newReplayer(t), newReplayer(nil)
	var st replayStats
	seen := map[string]bool{}
	g := newGen(seed)
walk:
	for r := 0; ; r++ {
		for _, o := range w.round(g, r) {
			for _, rq := range replayRequests(&o) {
				if len(st.reqs) >= w.replays || len(st.reqs) > 0 && time.Now().After(deadline) {
					break walk
				}
				if !rq.suite && seen[string(rq.body)] {
					continue
				}
				seen[string(rq.body)] = true
				t.req = len(st.reqs)
				miss, err := replayOne(rq, in, w, golden, t, on, off, &st)
				st.reqs = append(st.reqs, replayedReq{class: rq.class, miss: miss})
				if err != nil {
					st.failed++
					fmt.Fprintf(os.Stderr, "lpbench: replay %s: %v\n", rq.class, err)
				}
			}
		}
	}
	st.counts = on.c
	return st
}

// replayOne replays one request and returns its idle miss latency (ms).
// The direct re-executions come first, so that the served miss, like
// them, finds the request's data in the caches of a warm process; the
// other order leaves the miss alone to pay for cold caches and the layer
// sum short of it.
func replayOne(rq replayReq, in *instance, w *workload, golden map[string]string, t *tracer, on, off *replayer, st *replayStats) (float64, error) {
	var bodies [][]byte
	order := []bool{true, false}
	if len(st.reqs)%2 == 1 {
		order = []bool{false, true}
	}
	for _, traced := range order {
		rp, root := off, 0
		if traced {
			rp, root = on, t.begin("bench.request")
		}
		start := time.Now()
		body, err := rp.exec(rq, w.suite, golden)
		if traced {
			t.end(root)
			st.onNs += time.Since(start).Nanoseconds()
		} else {
			st.offNs += time.Since(start).Nanoseconds()
		}
		if err != nil {
			return 0, err
		}
		bodies = append(bodies, body)
	}
	if rq.suite {
		start := time.Now()
		res := experiments.RunAllCtx(context.Background(), w.suite, 1, 0)
		return float64(time.Since(start).Nanoseconds()) / 1e6, checkSuite(res, golden)
	}
	m, err := in.post(rq.path, rq.body)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	h, err := in.post(rq.path, rq.body)
	if err != nil {
		return m.ms, err
	}
	t.record("server.hit", start, time.Duration(h.ms*1e6))
	if m.cache != "miss" || h.cache != "hit" || !bytes.Equal(m.body, h.body) {
		return m.ms, fmt.Errorf("idle server answered X-Cache %q then %q, or two different bodies", m.cache, h.cache)
	}
	for _, body := range bodies {
		if !bytes.Equal(body, m.body) {
			return m.ms, fmt.Errorf("direct re-execution differs from the served body:\nserved: %s\ndirect: %s", m.body, body)
		}
	}
	return m.ms, nil
}

// traced measures the per-layer metrics: set-up, a closed loop over a
// third of the run time (at least one round, cut off at the time) for the
// serving counts, then the traced replay on a fresh idle server for the
// other two thirds. The spans go to tracePath.
func (b *runner) traced(tracePath string) (result, error) {
	before := b.pr.probe()
	if _, err := b.setup(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	ph, err := b.timedPhase(b.w.rounds(b.seconds/3), b.seconds/3, nil)
	if err != nil {
		return result{}, err
	}
	res := b.failures(ph)
	in, err := startInstance()
	if err != nil {
		return result{}, err
	}
	defer in.close()
	t := newTracer()
	st := replay(b.w, b.seed, in, b.seconds*2/3, b.golden, t)
	res.Attempted += len(st.reqs)
	res.Failed += st.failed
	res.Correct = res.Failed == 0

	m, classes := layerReport(t, st.reqs)
	for k, v := range ph.server {
		m[k] = v
	}
	c := st.counts
	m["bdd.nodes_max"] = float64(c.nodesMax)
	m["bdd.retry_ratio"] = frac(c.retries, c.exact)
	m["bdd.degrade_ratio"] = frac(c.degraded, c.exact)
	m["power.incr_reuse_ratio"] = frac(c.incrClean, c.incrCone+c.incrClean)
	m["sim.events_per_op"] = 0
	if c.simOps > 0 {
		m["sim.events_per_op"] = float64(c.simEvents) / float64(c.simOps)
	}
	m["core.power_ratio_geomean"] = geomean(c.ratios)
	m["bench.trace_overhead_pct"] = 0
	if st.offNs > 0 {
		m["bench.trace_overhead_pct"] = 100 * float64(st.onNs-st.offNs) / float64(st.offNs)
	}
	// One scale factor for the whole run, from the probes around it.
	f := calibRefMs / ((before + b.pr.probe()) / 2)
	res.Metrics = map[string]metric{}
	for _, pl := range perLayer() {
		v := m[pl.name]
		if pl.unit == "ms" || pl.unit == "us" {
			v *= f
		}
		res.Metrics[pl.name] = metric{v, pl.unit}
	}

	fmt.Fprintf(b.log, "%s: replayed %d requests; trace overhead %.2f%%; layer sum / idle miss latency per class:\n",
		b.w.name, len(st.reqs), m["bench.trace_overhead_pct"])
	for _, c := range classes {
		flag := ""
		if r := c.ratio(); r < 0.9 || r > 1.1 {
			flag = "  outside 0.9-1.1"
		}
		fmt.Fprintf(b.log, "  %-28s n=%-5d layers %9.3f ms  miss %9.3f ms  ratio %.3f%s\n", c.class, c.n, c.layerSum, c.miss, c.ratio(), flag)
	}
	if m["bench.trace_overhead_pct"] >= 5 {
		fmt.Fprintf(os.Stderr, "lpbench: %s: trace overhead %.2f%% is not under 5%%\n", b.w.name, m["bench.trace_overhead_pct"])
	}
	if err := writeChromeTrace(tracePath, "lpbench "+b.w.name, t, st.reqs); err != nil {
		return res, err
	}
	fmt.Fprintf(b.log, "%s: Chrome trace written to %s\n", b.w.name, tracePath)
	return res, nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetric is one per-layer metric as BENCHMARK.json declares it.
type layerMetric struct {
	name, unit, better string
}

// perLayer lists every per-layer metric a traced run prints.
func perLayer() []layerMetric {
	out := []layerMetric{
		{"server.result_hit_ratio", "ratio", "higher"},
		{"server.net_hit_ratio", "ratio", "higher"},
		{"server.coalesce_ratio", "ratio", "higher"},
		{"server.batch_dedup_ratio", "ratio", "higher"},
		{"server.queue_wait_us", "us", "lower"},
	}
	for _, l := range append(append([]string(nil), layers...), experimentLayers()...) {
		out = append(out, layerMetric{l + "_ms", "ms", "lower"}, layerMetric{l + ".share", "ratio", "lower"})
	}
	for _, l := range tailLayers {
		out = append(out, layerMetric{l + "_p99_ms", "ms", "lower"})
	}
	return append(out,
		layerMetric{"bdd.nodes_max", "count", "lower"},
		layerMetric{"bdd.retry_ratio", "ratio", "lower"},
		layerMetric{"bdd.degrade_ratio", "ratio", "lower"},
		layerMetric{"power.incr_reuse_ratio", "ratio", "higher"},
		layerMetric{"sim.events_per_op", "count", "lower"},
		layerMetric{"core.power_ratio_geomean", "ratio", "lower"},
		layerMetric{"bench.trace_overhead_pct", "%", "lower"},
		layerMetric{"bench.layer_sum_ratio", "ratio", "lower"},
	)
}
