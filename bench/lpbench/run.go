package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/circuits"
	"repro/internal/experiments"
	"repro/internal/server"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run sets up at least minSetups times, and more until a second has
// passed, but at most maxSetups; setup_s is the median. A set-up of a few
// milliseconds is timed many times over, one of seconds five times.
const (
	minSetups = 5
	maxSetups = 25
)

// runner runs one workload in this process.
type runner struct {
	w       *workload
	seed    int64
	seconds time.Duration
	quick   bool      // smoke-test scale: one set-up
	log     io.Writer // progress and metric lines
	golden  map[string]string

	in    *instance
	warm  [][]byte // estimate-hot: the body of each hot key
	pairs sync.Map // estimate-hot: new-key pair id -> first body
	pr    *prober
}

func newRunner(name string, seed int64, seconds time.Duration, quick bool, log io.Writer) (*runner, error) {
	w, err := newWorkload(name, seed, quick)
	if err != nil {
		return nil, err
	}
	pr, err := newProber()
	if err != nil {
		return nil, err
	}
	return &runner{w: w, seed: seed, seconds: seconds, quick: quick, log: log, golden: goldenTables(), pr: pr}, nil
}

func (b *runner) close() {
	if b.in != nil {
		b.in.close()
	}
	b.pr.close()
}

// setup brings the workload to its timed state and returns how long that
// took: for the estimate and flow workloads a fresh server whose network
// cache holds every named circuit (plus, for estimate-hot, the warmed hot
// set); for reproduce one suite, checked against the golden, which grows
// the heap to its working size.
func (b *runner) setup() (time.Duration, error) {
	start := time.Now()
	if b.w.suite != nil {
		res := experiments.RunAllCtx(context.Background(), b.w.suite, 2, 0)
		return time.Since(start), checkSuite(res, b.golden)
	}
	in, err := startInstance()
	if err != nil {
		return 0, err
	}
	if b.in != nil {
		defer b.in.close() // the previous set-up's server; not timed
	}
	b.in = in
	for _, c := range circuits.GeneratorNames() {
		var q server.EstimateRequest
		q.Circuit, q.Estimator, q.Vectors = c, "propagated", 1 // no op sends vectors=1
		if _, err := in.post("/v1/estimate", mustJSON(q)); err != nil {
			return 0, fmt.Errorf("warming %s: %w", c, err)
		}
	}
	if len(b.w.keys) == 0 {
		return time.Since(start), nil
	}
	warm := make([][]byte, len(b.w.keys))
	var next atomic.Int64
	errs := make([]error, b.w.clients)
	var wg sync.WaitGroup
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(warm); k = int(next.Add(1) - 1) {
				rep, err := in.post("/v1/estimate", mustJSON(b.w.keys[k]))
				if err != nil {
					errs[c] = fmt.Errorf("warming hot key %d: %w", k, err)
					return
				}
				warm[k] = rep.body
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if b.warm != nil {
		for k := range warm {
			if !bytes.Equal(warm[k], b.warm[k]) {
				return 0, fmt.Errorf("hot key %d: body differs between two fresh servers", k)
			}
		}
	}
	b.warm = warm
	return elapsed, nil
}

// exec runs one op and checks what can be checked inline.
func (b *runner) exec(o *op) done {
	if o.suite {
		start := time.Now()
		res := experiments.RunAllCtx(context.Background(), b.w.suite, 2, 0)
		return done{ms: float64(time.Since(start).Nanoseconds()) / 1e6, err: checkSuite(res, b.golden)}
	}
	rep, err := b.in.post(o.path, o.body)
	d := done{ms: rep.ms, err: err}
	if err != nil {
		return d
	}
	switch {
	case o.flow != nil:
		d.keep, d.err = [][]byte{rep.body}, flowReply(rep)
	case len(o.keys) > 0:
		d.keep, d.err = b.hotReply(o, rep)
	default:
		d.keep, d.err = coldReply(o, rep)
	}
	if !o.sample {
		d.keep = nil
	}
	return d
}

// coldReply checks that every item of an estimate-cold op was computed
// (nothing is ever repeated), and returns the bodies.
func coldReply(o *op, rep reply) ([][]byte, error) {
	if o.path != "/v1/estimate:batch" {
		if rep.cache != "miss" {
			return nil, fmt.Errorf("%s: X-Cache %q, want a computed result", o.class, rep.cache)
		}
		return [][]byte{rep.body}, nil
	}
	items, err := batchItems(o, rep)
	if err != nil {
		return nil, err
	}
	for i, it := range items {
		if it.Cache != "miss" {
			return nil, fmt.Errorf("batch item %d: cache %q, want a computed result", i, it.Cache)
		}
	}
	return resultBodies(items), nil
}

// hotReply checks estimate-hot bodies: a hot key's must equal its warm-up
// body, and the two requests of a new key must get the same body.
func (b *runner) hotReply(o *op, rep reply) ([][]byte, error) {
	bodies := [][]byte{rep.body}
	if o.path == "/v1/estimate:batch" {
		items, err := batchItems(o, rep)
		if err != nil {
			return nil, err
		}
		bodies = resultBodies(items)
	}
	for i, k := range o.keys {
		if k < 0 {
			if first, loaded := b.pairs.LoadOrStore(o.pair, bodies[i]); loaded && !bytes.Equal(first.([]byte), bodies[i]) {
				return nil, fmt.Errorf("new key %d: the two identical requests got different bodies", o.pair)
			}
			continue
		}
		if !bytes.Equal(bodies[i], b.warm[k]) {
			return nil, fmt.Errorf("hot key %d: body differs from its warm-up body", k)
		}
	}
	return bodies, nil
}

func batchItems(o *op, rep reply) ([]server.BatchItemResponse, error) {
	var br server.BatchResponse
	if err := json.Unmarshal(rep.body, &br); err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	if len(br.Items) != len(o.items) {
		return nil, fmt.Errorf("batch: %d items answered, %d sent", len(br.Items), len(o.items))
	}
	for i, it := range br.Items {
		if !it.OK || it.Status != 200 {
			return nil, fmt.Errorf("batch item %d: status %d: %s", i, it.Status, it.Error)
		}
	}
	return br.Items, nil
}

func resultBodies(items []server.BatchItemResponse) [][]byte {
	out := make([][]byte, len(items))
	for i, it := range items {
		out[i] = it.Result
	}
	return out
}

// flowReply checks a computed flow with one step per pass.
func flowReply(rep reply) error {
	var fr server.FlowResponse
	if err := json.Unmarshal(rep.body, &fr); err != nil {
		return fmt.Errorf("flow: %w", err)
	}
	if rep.cache != "miss" {
		return fmt.Errorf("flow %s/%s: X-Cache %q, want a computed result", fr.Circuit, fr.Flow, rep.cache)
	}
	if len(fr.Steps) != len(fr.Passes)+1 || fr.SimPowerRatio <= 0 {
		return fmt.Errorf("flow %s/%s: %d steps for %d passes, sim_power_ratio %v", fr.Circuit, fr.Flow, len(fr.Steps), len(fr.Passes), fr.SimPowerRatio)
	}
	return nil
}

// verify runs the oracle checks on the first limit sampled results of a
// timed phase (each new hot key once) and moves the ops that fail them to
// the failed list.
func (t *tally) verify(limit int) {
	checked := 0
	seen := map[int]bool{}
	for _, d := range t.kept {
		if seen[d.op.pair] || checked >= limit {
			continue
		}
		if d.op.pair != 0 {
			seen[d.op.pair] = true
		}
		checked++
		for k, body := range d.keep {
			if d.op.flow != nil {
				d.err = checkFlow(*d.op.flow, body)
			} else {
				d.err = checkEstimate(d.op.items[k], body)
			}
			if d.err != nil {
				t.failed = append(t.failed, d)
				break
			}
		}
	}
}

// serverRatios derives the serving layer's counts from two /metrics
// exports: cache hit ratios, coalescing, batch deduplication and the
// mean queue wait of the compute endpoints.
func serverRatios(before, after map[string]any) map[string]float64 {
	d := func(name string) float64 { return num(after[name]) - num(before[name]) }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	var sum, n float64
	for _, ep := range []string{"estimate", "batch", "flow"} {
		name := "server.http." + ep + ".queue_us"
		hb, _ := before[name].(map[string]any)
		ha, _ := after[name].(map[string]any)
		sum += num(ha["mean"])*num(ha["count"]) - num(hb["mean"])*num(hb["count"])
		n += num(ha["count"]) - num(hb["count"])
	}
	wait := 0.0
	if n > 0 {
		wait = sum / n
	}
	dedup := 0.0
	if items := d("server.batch.items"); items > 0 {
		dedup = d("server.batch.dedup") / items
	}
	return map[string]float64{
		"server.result_hit_ratio":  ratio(d("server.cache.result.hits"), d("server.cache.result.misses")),
		"server.net_hit_ratio":     ratio(d("server.cache.net.hits"), d("server.cache.net.misses")),
		"server.coalesce_ratio":    ratio(d("server.coalesce.hits"), d("server.coalesce.leaders")),
		"server.batch_dedup_ratio": dedup,
		"server.queue_wait_us":     wait,
	}
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

// phase is one closed-loop run: its tally, the peak RSS during it, and
// the server's counts over it.
type phase struct {
	*tally
	rssMiB float64
	server map[string]float64
}

// timedPhase runs the closed loop for a number of rounds, or for a time
// when rounds is 0, between two reads of the serving counters. pr, when
// not nil, probes the host during it.
func (b *runner) timedPhase(rounds int, limit time.Duration, pr *prober) (phase, error) {
	var before map[string]any
	if b.in != nil {
		var err error
		if before, err = b.in.counters(); err != nil {
			return phase{}, err
		}
	}
	if err := resetPeakRSS(); err != nil {
		return phase{}, err
	}
	ph := phase{tally: closedLoop(newStream(b.w, newGen(b.seed), rounds, limit, pr), b.exec)}
	var err error
	if ph.rssMiB, err = peakRSSMiB(); err != nil {
		return ph, err
	}
	if b.in != nil {
		after, err := b.in.counters()
		if err != nil {
			return ph, err
		}
		ph.server = serverRatios(before, after)
	}
	return ph, nil
}

// hitRule is the serving cache's expected behaviour on the workload:
// estimate-cold and flow never repeat a request, estimate-hot repeats
// almost nothing else.
func (b *runner) hitRule(ph phase) error {
	if ph.server == nil {
		return nil
	}
	r := ph.server["server.result_hit_ratio"]
	switch b.w.name {
	case "estimate-hot":
		if r < 0.95 {
			return fmt.Errorf("server.result_hit_ratio %.4f on estimate-hot, want >= 0.95", r)
		}
	default:
		if r != 0 {
			return fmt.Errorf("server.result_hit_ratio %.4f on %s, want 0", r, b.w.name)
		}
	}
	return nil
}

// endToEnd runs set-up and the timed phase and reports the end-to-end
// metrics, scaled to reference-host units (calib.go); the unscaled ones
// go to the log.
func (b *runner) endToEnd() (result, error) {
	before := b.pr.probe()
	var st []float64
	start := time.Now()
	for len(st) == 0 || !b.quick && (len(st) < minSetups || len(st) < maxSetups && time.Since(start) < time.Second) {
		d, err := b.setup()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		st = append(st, d.Seconds())
	}
	ph, err := b.timedPhase(b.w.rounds(b.seconds), 0, b.pr)
	if err != nil {
		return result{}, err
	}
	ph.verify(b.w.checks)
	res := b.failures(ph)
	res.Correct = res.Failed == 0
	q := tailPercentile(b.w.nominal)
	metrics := func(scaled bool) map[string]metric {
		setup := median(st)
		if scaled {
			setup *= calibRefMs / ((before + ph.probes[0]) / 2)
		}
		wall, cpu := ph.times(scaled)
		lat := ph.latencies(scaled)
		n := float64(ph.n)
		return map[string]metric{
			"setup_s":          {setup, "s"},
			"throughput_per_s": {n / wall.Seconds(), "1/s"},
			"latency_p50_ms":   {percentile(lat, 50), "ms"},
			"latency_tail_ms":  {percentile(lat, q), "ms"},
			"cpu_ms_per_op":    {float64(cpu.Nanoseconds()) / 1e6 / n, "ms"},
			"peak_rss_mb":      {ph.rssMiB, "MiB"},
		}
	}
	res.Metrics = metrics(true)
	wall, _ := ph.times(false)
	fmt.Fprintf(b.log, "%s: %d ops in %.1fs (%d failed); latency_tail_ms is p%g (%d samples beyond); setup_s is the median of %d set-ups\n",
		b.w.name, ph.n, wall.Seconds(), res.Failed, q, beyond(ph.n-len(ph.failed), q), len(st))
	raw, _ := json.Marshal(metrics(false))
	fmt.Fprintf(b.log, "%s: %d host probes, %.2f-%.2f ms (reference %.1f ms); unscaled: %s\n",
		b.w.name, len(ph.probes)+1, slices.Min(append(ph.probes, before)), slices.Max(append(ph.probes, before)), calibRefMs, raw)
	logClasses(b.log, ph.ms)
	return res, nil
}

// failures reports a phase's failed ops on stderr and counts them, plus
// one for a broken cache-hit rule, into a result.
func (b *runner) failures(ph phase) result {
	res := result{Attempted: ph.n, Failed: len(ph.failed)}
	for _, d := range ph.failed {
		fmt.Fprintf(os.Stderr, "lpbench: %s op %d (%s): %v\n", b.w.name, d.idx, d.class, d.err)
	}
	if err := b.hitRule(ph); err != nil {
		res.Failed++
		fmt.Fprintln(os.Stderr, "lpbench:", err)
	}
	return res
}

// logClasses prints the unscaled latency of each op class, the costliest
// first.
func logClasses(w io.Writer, by map[string][]lat) {
	ms := map[string][]float64{}
	sum := map[string]float64{}
	all := 0.0
	classes := make([]string, 0, len(by))
	for c, ls := range by {
		for _, l := range ls {
			ms[c] = append(ms[c], l.ms)
			sum[c] += l.ms
		}
		all += sum[c]
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return sum[classes[i]] > sum[classes[j]] })
	for _, c := range classes {
		fmt.Fprintf(w, "  %-30s n=%-6d time %5.1f%%  p50 %9.3f ms  max %9.3f ms\n",
			c, len(ms[c]), 100*sum[c]/all, median(ms[c]), percentile(ms[c], 100))
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the process's peak resident set size (VmHWM)
// from its current size.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
