package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obsv/profile"
)

// tracer records the spans the replay opens around its calls into each
// layer: name, start, end, parent and request. Spans stay in memory and
// are written out as Chrome trace_event JSON when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	req   int   // request the next spans belong to
	// delay sleeps inside the named span before its call runs; tests use
	// it to check that the report attributes the delay to that layer.
	delay map[string]time.Duration
}

type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int   // enclosing span, or -1 for a request root
	req        int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, req: t.req})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	t.spans[i].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// run wraps f in a span; a nil tracer just calls f.
func (t *tracer) run(name string, f func() error) error {
	if t == nil {
		return f()
	}
	i := t.begin(name)
	if d := t.delay[name]; d > 0 {
		time.Sleep(d)
	}
	err := f()
	t.end(i)
	return err
}

// record adds a root span for an interval timed elsewhere.
func (t *tracer) record(name string, start time.Time, d time.Duration) {
	s := start.Sub(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{name: name, start: s, end: s + d.Nanoseconds(), parent: -1, req: t.req})
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover; overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := int64(0), s.start
		for _, v := range ivs {
			if v.a < reach {
				v.a = reach
			}
			if v.b > v.a {
				covered += v.b - v.a
				reach = v.b
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layers lists every timed layer the replay can report, each named
// <module>.<op> after the public call its span wraps.
var layers = []string{
	"server.hit", "server.encode",
	"logic.resolve", "logic.hash", "logic.clone", "logic.check", "logic.verify", "logic.strash", "logic.sweep",
	"bdd.build", "bdd.sift", "bdd.prob",
	"power.propagate", "power.evaluate", "power.seqprob", "power.mc", "power.incr",
	"sim.vectors", "sim.event", "sim.packed",
	"dontcare.area", "dontcare.power", "balance.pass", "bddsynth.pass",
	"bench.request",
}

// tailLayers also report their p99 self time.
var tailLayers = []string{"server.hit", "bdd.build", "sim.event"}

// replayedReq is one replayed request: its class, its idle miss latency,
// and its self time per layer (ms).
type replayedReq struct {
	class string
	miss  float64
	self  map[string]float64
}

// classRatio is one request class's layer-sum check: the sum of the
// layers' median self times against the median idle miss latency.
type classRatio struct {
	class    string
	n        int
	layerSum float64
	miss     float64
}

func (c classRatio) ratio() float64 { return c.layerSum / c.miss }

// layerReport turns the spans into the per-layer metrics: each layer's
// p50 self time (p99 too for tailLayers) and its share of all replay
// time, and the per-class layer sums. bench.layer_sum_ratio weights each
// class by its request count: the share of the served time that the
// layers account for. reqs[i] describes request i.
func layerReport(t *tracer, reqs []replayedReq) (map[string]float64, []classRatio) {
	self := selfTimes(t.spans)
	per := map[string][]float64{}
	total, all := map[string]float64{}, 0.0
	for i, s := range t.spans {
		ms := float64(self[i]) / 1e6
		per[s.name] = append(per[s.name], ms)
		total[s.name] += ms
		all += ms
		if s.req >= 0 && s.req < len(reqs) {
			r := &reqs[s.req]
			if r.self == nil {
				r.self = map[string]float64{}
			}
			r.self[s.name] += ms
		}
	}
	out := map[string]float64{}
	for _, l := range append(append([]string(nil), layers...), experimentLayers()...) {
		out[l+"_ms"] = median(per[l])
		out[l+".share"] = 0
		if all > 0 {
			out[l+".share"] = total[l] / all
		}
	}
	for _, l := range tailLayers {
		out[l+"_p99_ms"] = percentile(per[l], 99)
	}

	byClass := map[string][]replayedReq{}
	for _, r := range reqs {
		byClass[r.class] = append(byClass[r.class], r)
	}
	var ratios []classRatio
	for c, rs := range byClass {
		cr := classRatio{class: c, n: len(rs)}
		names := map[string]bool{}
		var miss []float64
		for _, r := range rs {
			miss = append(miss, r.miss)
			for l := range r.self {
				names[l] = true
			}
		}
		for l := range names {
			v := make([]float64, len(rs))
			for i, r := range rs {
				v[i] = r.self[l]
			}
			cr.layerSum += median(v)
		}
		cr.miss = median(miss)
		ratios = append(ratios, cr)
	}
	sort.Slice(ratios, func(i, j int) bool { return ratios[i].class < ratios[j].class })
	var sum, miss float64
	for _, c := range ratios {
		sum += float64(c.n) * c.layerSum
		miss += float64(c.n) * c.miss
	}
	out["bench.layer_sum_ratio"] = 0
	if miss > 0 {
		out["bench.layer_sum_ratio"] = sum / miss
	}
	return out, ratios
}

// writeChromeTrace writes the spans as Chrome trace_event JSON, loadable
// in Perfetto, with each span's parent and request as args.
func writeChromeTrace(path, process string, t *tracer, reqs []replayedReq) error {
	pt := &profile.Trace{Process: process, Thread: "replay"}
	for i, s := range t.spans {
		args := map[string]interface{}{"span_id": i, "parent_id": s.parent, "request": s.req}
		if s.req >= 0 && s.req < len(reqs) {
			args["class"] = reqs[s.req].class
		}
		pt.Add(profile.Span{Name: s.name, Cat: "layer", StartNs: s.start, DurNs: s.end - s.start, Args: args})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pt.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
