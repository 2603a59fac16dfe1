package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/server"
)

// A workload is a stream of ops cut into rounds of fixed composition: the
// seed decides every random parameter (circuit, vector count, uploaded
// netlist, per-request seed) and, except in flow, the order; never the
// mix. A timed run
// executes a whole number of rounds, fixed by the requested run time, so
// runs with different seeds, and a parent and a change, do the same work.
type workload struct {
	name    string
	clients int // closed-loop clients (each waits for its reply)
	// roundSeconds is a round's duration on the reference machine (two
	// vCPUs of a Xeon server): a run of s seconds executes
	// round(s/roundSeconds) rounds, at least one.
	roundSeconds float64
	// nominal is the op count of a 15-second run, which fixes the tail
	// percentile (tailPercentile) independently of any one run's count.
	nominal int
	// checks caps the sampled results checked against an oracle after the
	// timed phase; replays caps the requests of the traced replay.
	checks, replays int
	// keys are estimate-hot's hot set, warmed during set-up.
	keys []server.EstimateRequest
	// suite is the experiment list a reproduce op runs.
	suite []experiments.Experiment
	// round builds round r; rounds are built in order from one generator.
	round func(g *gen, r int) []op
}

// rounds is the number of rounds a run of the given length executes.
func (w *workload) rounds(run time.Duration) int {
	return max(1, int(math.Round(run.Seconds()/w.roundSeconds)))
}

// op is one unit of closed-loop work: one HTTP request, or one experiment
// suite for reproduce.
type op struct {
	class string // request class: latency, replay and check bookkeeping
	path  string
	body  []byte
	items []server.EstimateRequest // estimate items: one, or a batch's
	flow  *server.FlowRequest
	suite bool
	// keys holds the hot-key index of each item; pair is a nonzero id
	// shared by the two identical requests of a new hot key.
	keys []int
	pair int
	// sample marks an op whose result is checked against an oracle after
	// the timed phase.
	sample bool
}

// narrow circuits are cheap for every engine; wide ones need sifting
// under a 20k-node BDD budget.
var (
	narrowCircuits = []string{"alu4", "cla8", "cmp8", "dec5", "mult4", "mult5", "mult6", "par16", "radd8"}
	wideCircuits   = []string{"radd16", "cmp16", "mux16"}
)

const wideBudget = 20000

var workloadNames = []string{"estimate-cold", "estimate-hot", "flow", "reproduce"}

// newWorkload builds a workload by name. quick shrinks every round to a
// smoke-test size.
func newWorkload(name string, seed int64, quick bool) (*workload, error) {
	switch name {
	case "estimate-cold":
		return coldWorkload(quick), nil
	case "estimate-hot":
		return hotWorkload(seed, quick), nil
	case "flow":
		return flowWorkload(quick), nil
	case "reproduce":
		return reproduceWorkload(quick), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// gen draws every random choice of a run from one seeded source.
type gen struct {
	r     *rand.Rand
	seq   int64 // last per-request seed: every generated request is distinct
	ests  deck
	kinds deck
	zipf  *rand.Zipf // estimate-hot's key popularity
}

func newGen(seed int64) *gen {
	r := rand.New(rand.NewSource(seed))
	return &gen{
		r:   r,
		seq: int64(r.Int31()) << 20,
		// Estimators 30/20/25/25 and circuit kinds 70/10/20, dealt from
		// shuffled decks so every pass of 20 (10) draws has the exact mix.
		ests: deck{r: r, cards: strings.Fields(strings.Repeat("exact ", 6) + strings.Repeat("propagated ", 4) +
			strings.Repeat("simulated ", 5) + strings.Repeat("packed ", 5))},
		kinds: deck{r: r, cards: strings.Fields(strings.Repeat("narrow ", 7) + "wide " + strings.Repeat("upload ", 2))},
	}
}

// deck deals its cards in a fresh shuffled order each pass.
type deck struct {
	r     *rand.Rand
	cards []string
	next  int
}

func (d *deck) deal() string {
	if d.next == 0 {
		d.r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

func (g *gen) seed() int64 {
	g.seq++
	return g.seq
}

// estimate draws one estimate request of the given circuit kind and
// estimator with a fresh seed.
func (g *gen) estimate(kind, est string) server.EstimateRequest {
	var q server.EstimateRequest
	q.Estimator = est
	q.Seed = g.seed()
	switch est {
	case "simulated":
		q.Vectors = 256 + g.r.Intn(2048-256+1)
	case "packed":
		q.Vectors = 1024 + g.r.Intn(16384-1024+1)
	default:
		q.Vectors = 1000
	}
	switch kind {
	case "narrow":
		q.Circuit = narrowCircuits[g.r.Intn(len(narrowCircuits))]
	case "wide":
		q.Circuit = wideCircuits[g.r.Intn(len(wideCircuits))]
		if est == "exact" {
			q.BDDMaxNodes = wideBudget
		}
	case "upload":
		// The packed estimator rejects sequential circuits.
		seq := est != "packed" && g.r.Intn(8) == 0
		q.BLIF = randomBLIF(g.r, fmt.Sprintf("up%d", q.Seed), seq)
	}
	return q
}

// estimateClass names an estimate item's request class: estimator and
// circuit, with uploads split into combinational and sequential.
func estimateClass(q server.EstimateRequest) string {
	switch {
	case q.Circuit != "" && q.Estimator == "exact" && q.BDDMaxNodes == 0 && slices.Contains(wideCircuits, q.Circuit):
		return "exact/unbudgeted"
	case q.Circuit != "":
		return q.Estimator + "/" + q.Circuit
	case strings.Contains(q.BLIF, ".latch"):
		return q.Estimator + "/upload-seq"
	}
	return q.Estimator + "/upload"
}

func single(q server.EstimateRequest) op {
	return op{class: estimateClass(q), path: "/v1/estimate", body: mustJSON(q), items: []server.EstimateRequest{q}}
}

func batch(items []server.EstimateRequest) op {
	return op{class: "batch", path: "/v1/estimate:batch", body: mustJSON(server.BatchRequest{Items: items}), items: items}
}

// coldWorkload: every request distinct, so the caches never hit and the
// engines do the work. Each round of 1024 ops opens with one unbudgeted
// exact estimate on a wide circuit (what a client that names no budget
// gets; radd16, cmp16, mux16 in turn), and every 16th op is a batch of
// four distinct items.
func coldWorkload(quick bool) *workload {
	size, batchEvery := 1024, 16
	if quick {
		size, batchEvery = 24, 8
	}
	return &workload{
		name:         "estimate-cold",
		clients:      2,
		roundSeconds: 4,
		nominal:      4 * 1024,
		checks:       256,
		replays:      2000,
		round: func(g *gen, r int) []op {
			ops := make([]op, 0, size)
			if !quick {
				var q server.EstimateRequest
				q.Circuit, q.Estimator, q.Vectors, q.Seed = wideCircuits[r%len(wideCircuits)], "exact", 1000, g.seed()
				ops = append(ops, single(q))
			}
			for len(ops) < size {
				var o op
				if len(ops)%batchEvery == batchEvery-1 {
					items := make([]server.EstimateRequest, 4)
					for i := range items {
						items[i] = g.estimate(g.kinds.deal(), g.ests.deal())
					}
					o = batch(items)
				} else {
					o = single(g.estimate(g.kinds.deal(), g.ests.deal()))
				}
				o.sample = g.r.Intn(4) == 0
				ops = append(ops, o)
			}
			return ops
		},
	}
}

// hotWorkload: a Zipf(1.1) stream over a hot set that fits the 512-entry
// result cache. Each 256-op round opens with a new key sent as two
// back-to-back identical requests (one leads, the other coalesces or
// hits), and every 64th op is a batch of eight keys with two duplicates.
func hotWorkload(seed int64, quick bool) *workload {
	nkeys, size, batchEvery := 256, 256, 64
	if quick {
		nkeys, size, batchEvery = 16, 64, 16
	}
	// The hot set comes from its own stream, so it is the same however
	// many rounds a run builds.
	kg := newGen(seed ^ 0x5eed)
	kg.seq = 1 << 52 // above every stream seed, so no new key repeats a hot one
	keys := make([]server.EstimateRequest, nkeys)
	bodies := make([][]byte, nkeys)
	for i := range keys {
		keys[i] = kg.estimate("narrow", kg.ests.deal())
		bodies[i] = mustJSON(keys[i])
	}
	return &workload{
		name:         "estimate-hot",
		clients:      2,
		roundSeconds: 0.015,
		nominal:      200000,
		checks:       64,
		replays:      20000,
		keys:         keys,
		round: func(g *gen, r int) []op {
			if g.zipf == nil {
				g.zipf = rand.NewZipf(g.r, 1.1, 1, uint64(nkeys-1))
			}
			ops := make([]op, 0, size)
			nk := single(g.estimate("narrow", g.ests.deal()))
			nk.class, nk.keys, nk.pair, nk.sample = "new-key", []int{-1}, r+1, true
			ops = append(ops, nk, nk)
			for len(ops) < size {
				if len(ops)%batchEvery == batchEvery-1 {
					idx := make([]int, 0, 8)
					for len(idx) < 6 {
						if k := int(g.zipf.Uint64()); !slices.Contains(idx, k) {
							idx = append(idx, k)
						}
					}
					idx = append(idx, idx[g.r.Intn(6)], idx[g.r.Intn(6)])
					items := make([]server.EstimateRequest, len(idx))
					for i, k := range idx {
						items[i] = keys[k]
					}
					o := batch(items)
					o.keys = idx
					ops = append(ops, o)
					continue
				}
				k := int(g.zipf.Uint64())
				ops = append(ops, op{class: "hit", path: "/v1/estimate", body: bodies[k],
					items: keys[k : k+1], keys: []int{k}})
			}
			return ops
		},
	}
}

// flowCombos lists the flow workload's 80 combinations. Area and lowpower
// are left out on the wide circuits: the don't-care pass takes seconds to
// minutes there and ignores the request deadline.
func flowCombos(quick bool) []server.FlowRequest {
	var out []server.FlowRequest
	add := func(circuits, flows []string, budget int) {
		for _, c := range circuits {
			for _, f := range flows {
				for _, incr := range []bool{false, true} {
					var q server.FlowRequest
					q.Circuit, q.Flow, q.Incremental, q.BDDMaxNodes = c, f, incr, budget
					out = append(out, q)
				}
			}
		}
	}
	if quick {
		add([]string{"dec5", "alu4"}, []string{"glitch", "bddmux"}, 0)
		return out
	}
	add([]string{"alu4", "cla8", "cmp8", "dec5", "mult4", "mult5", "par16", "radd8"},
		[]string{"area", "lowpower", "glitch", "bddmux"}, 0)
	add([]string{"cmp16", "radd16", "mult6", "mux16"}, []string{"glitch", "bddmux"}, wideBudget)
	return out
}

// flowRank orders the circuits by how long their flows take on the
// reference host, longest first.
var flowRank = []string{"cla8", "cmp8", "mult5", "radd8", "par16", "mult6", "cmp16", "radd16", "mux16", "mult4", "alu4", "dec5"}

// flowWorkload: every five rounds run each combination once, with
// distinct seeds so nothing is cached. The combinations are sorted
// longest first: the don't-care flows (area, lowpower) before the others,
// then by circuit rank, full measurement before incremental. Round r takes
// every fifth of them, starting at r mod 5, so each round is a similar mix
// in the same longest-first order: it ends on flows of a millisecond or
// two, with no client idle behind a long one when the round closes, and
// the cla8 don't-care flows, the largest in memory (about 11 MiB each,
// twice the next), always overlap the same partners, so every run reaches
// the same memory peak. The seed decides every flow's seed, not the
// order. Every fifth flow of the first five rounds is checked against a
// direct core.RunFlowCtx.
func flowWorkload(quick bool) *workload {
	combos := flowCombos(quick)
	key := func(q server.FlowRequest) []int {
		dc := 1
		if q.Flow == "area" || q.Flow == "lowpower" {
			dc = 0
		}
		incr := 0
		if q.Incremental {
			incr = 1
		}
		return []int{dc, slices.Index(flowRank, q.Circuit), incr}
	}
	slices.SortStableFunc(combos, func(a, b server.FlowRequest) int { return slices.Compare(key(a), key(b)) })
	const chunks = 5
	return &workload{
		name:         "flow",
		clients:      2,
		roundSeconds: 1.4,
		nominal:      11 * 16,
		checks:       16,
		replays:      80,
		round: func(g *gen, r int) []op {
			var ops []op
			for i := r % chunks; i < len(combos); i += chunks {
				q := combos[i]
				q.Seed = g.seed()
				ops = append(ops, op{class: flowClass(q), path: "/v1/flow", body: mustJSON(q), flow: &q,
					sample: r < chunks && len(ops)%5 == 4})
			}
			return ops
		},
	}
}

func flowClass(q server.FlowRequest) string {
	return fmt.Sprintf("flow/%s/%s/incr=%t", q.Circuit, q.Flow, q.Incremental)
}

// reproduceWorkload: one op regenerates every survey table
// (experiments.RunAllCtx on two workers) and compares it with the golden.
func reproduceWorkload(quick bool) *workload {
	suite := experiments.All()
	if quick {
		var small []experiments.Experiment
		for _, ex := range suite {
			switch ex.ID {
			case "E1", "E4b", "E9", "E10":
				small = append(small, ex)
			}
		}
		suite = small
	}
	return &workload{
		name:         "reproduce",
		clients:      1,
		roundSeconds: 1.8,
		nominal:      8,
		replays:      1,
		suite:        suite,
		round: func(*gen, int) []op {
			return []op{{class: "suite", suite: true}}
		},
	}
}

// randomBLIF writes a seeded random netlist: 20-160 two-input covers (AND,
// OR, NAND, NOR, XOR, XNOR; about 50-400 gates once parsed) over 8-16
// inputs, and 4-8 latches when sequential. The covers sit on 6-12 levels
// and take their fanins mostly from the level below, so the logic is
// reconvergent but not deeper than a mapped netlist; every gate without
// fanout drives an output.
func randomBLIF(r *rand.Rand, name string, sequential bool) string {
	gates, pis, latches, levels := 20+r.Intn(141), 8+r.Intn(9), 0, 6+r.Intn(7)
	if sequential {
		latches = 4 + r.Intn(5)
	}
	covers := []string{"11 1\n", "1- 1\n-1 1\n", "0- 1\n-0 1\n", "00 1\n", "01 1\n10 1\n", "00 1\n11 1\n"}
	sig := make([]string, 0, pis+latches+gates)
	for i := 0; i < pis; i++ {
		sig = append(sig, fmt.Sprintf("i%d", i))
	}
	for i := 0; i < latches; i++ {
		sig = append(sig, fmt.Sprintf("q%d", i))
	}
	fanout := make([]int, cap(sig))
	// lo[l] is the first signal of level l; sources are level 0.
	lo := []int{0, len(sig)}
	pick := func() int {
		l := len(lo) - 2 // the level below the one being built
		if l > 0 && r.Intn(4) == 0 {
			l = r.Intn(l)
		}
		return lo[l] + r.Intn(lo[l+1]-lo[l])
	}
	var body strings.Builder
	for g := 0; g < gates; g++ {
		if g > 0 && g%((gates+levels-1)/levels) == 0 {
			lo = append(lo, len(sig))
		}
		a, b := pick(), pick()
		for b == a {
			b = r.Intn(len(sig))
		}
		fanout[a]++
		fanout[b]++
		fmt.Fprintf(&body, ".names %s %s g%d\n%s", sig[a], sig[b], g, covers[r.Intn(len(covers))])
		sig = append(sig, fmt.Sprintf("g%d", g))
	}
	first := pis + latches
	for i := 0; i < latches; i++ {
		d := first + gates/2 + r.Intn(gates-gates/2)
		fanout[d]++
		fmt.Fprintf(&body, ".latch %s q%d 0\n", sig[d], i)
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".model %s\n.inputs %s\n.outputs", name, strings.Join(sig[:pis], " "))
	for i := first; i < len(sig); i++ {
		if fanout[i] == 0 {
			b.WriteString(" " + sig[i])
		}
	}
	b.WriteString("\n")
	b.WriteString(body.String())
	b.WriteString(".end\n")
	return b.String()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}
