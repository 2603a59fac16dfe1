// Package sim provides event-driven gate-level simulation of logic
// networks under assignable delay models, with per-net switching-activity
// and glitch (spurious transition) accounting.
//
// The survey's logic-level power claims hinge on the distinction between
// zero-delay activity (each net toggles at most once per cycle) and real
// timed activity, where unequal path delays create spurious transitions
// that account for 10–40% of switching power in typical combinational
// circuits (Ghosh et al. [16]). This package measures both.
package sim

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/obsv"
)

// DelayModel assigns an integer propagation delay to each node. Gate delays
// must be >= 1; sources (inputs, constants, flip-flop outputs) are ignored.
type DelayModel func(n *logic.Node) int

// UnitDelay gives every gate a delay of 1 — the classic unit-delay model
// used for glitch analysis.
func UnitDelay(*logic.Node) int { return 1 }

// FanoutDelay gives every gate a delay of 1 plus one unit per fanout beyond
// the first, a crude load-dependent model.
func FanoutDelay(n *logic.Node) int {
	d := 1 + len(n.Fanout()) - 1
	if d < 1 {
		d = 1
	}
	return d
}

// CycleStats reports what happened during one simulated clock cycle.
type CycleStats struct {
	// Transitions is the total number of signal transitions on gate
	// outputs during the cycle (excluding primary inputs).
	Transitions int
	// Useful is the number of nets whose final value differs from their
	// initial value (at most one useful transition per net per cycle).
	Useful int
	// Spurious = Transitions - Useful: glitch transitions.
	Spurious int
	// SettleTime is the time at which the last event occurred.
	SettleTime int
}

// Tracer observes signal transitions during simulation — the hook behind
// VCD waveform dumps (obsv.NetTrace). BeginCycle is called at the start of
// every Cycle, Change once per net transition with its cycle-relative event
// time (source nets — FFs and PIs — change at t=0), and EndCycle with the
// cycle's settle time after quiescence.
type Tracer interface {
	BeginCycle(cycle int)
	Change(t int, id logic.NodeID, val bool)
	EndCycle(settle int)
}

// metrics holds the simulator's registry handles, captured once at
// construction. All handles are nil (no-op) when observability is off.
type metrics struct {
	events   *obsv.Counter   // sim.events: gate-output transitions
	spurious *obsv.Counter   // sim.spurious: glitch transitions
	cycles   *obsv.Counter   // sim.cycles: clock cycles simulated
	queueHWM *obsv.Gauge     // sim.queue.hwm: max pending evaluations
	settle   *obsv.Histogram // sim.settle: per-cycle settle times
}

func newMetrics() metrics {
	r := obsv.Default()
	return metrics{
		events:   r.Counter("sim.events"),
		spurious: r.Counter("sim.spurious"),
		cycles:   r.Counter("sim.cycles"),
		queueHWM: r.Gauge("sim.queue.hwm"),
		settle:   r.Histogram("sim.settle"),
	}
}

// Simulator performs cycle-by-cycle event-driven simulation.
type Simulator struct {
	nw    *logic.Network
	delay []int
	val   []bool
	gates []logic.NodeID // cached live gate IDs (stable while simulating)

	// Counts holds the per-node cumulative transition counts across all
	// simulated cycles since the last Reset.
	Counts
	// cycleBase offsets tracer cycle numbers and lets a warm-started
	// shard report cycle indices relative to the whole run.
	cycleBase int

	met    metrics
	tracer Tracer

	// Event-queue scratch, reused across cycles so the steady-state hot
	// loop performs no allocation: a binary min-heap of pending event
	// times, per-time node buckets recycled through a free pool, and a
	// packed (time, node) set for deduplication.
	timeHeap    []int
	buckets     map[int][]logic.NodeID
	bucketPool  [][]logic.NodeID
	inQ         map[uint64]bool
	outstanding int // events scheduled but not yet evaluated
	cycleHWM    int // high-water mark of outstanding within the cycle

	// Per-cycle scratch buffers.
	initialBuf []bool
	newFFBuf   []bool
	changedBuf []logic.NodeID
	evalBuf    []bool
}

// New creates a simulator for the network under the given delay model.
// Flip-flops start at their initial values; all other nets start at the
// value they settle to under the all-zero input vector.
func New(nw *logic.Network, dm DelayModel) (*Simulator, error) {
	if dm == nil {
		dm = UnitDelay
	}
	s := &Simulator{
		nw:         nw,
		delay:      make([]int, nw.NumNodes()),
		val:        make([]bool, nw.NumNodes()),
		Counts:     newCounts(nw.NumNodes(), false),
		met:        newMetrics(),
		gates:      nw.Gates(),
		buckets:    make(map[int][]logic.NodeID),
		inQ:        make(map[uint64]bool),
		initialBuf: make([]bool, nw.NumNodes()),
		newFFBuf:   make([]bool, len(nw.FFs())),
	}
	for _, id := range nw.Live() {
		n := nw.Node(id)
		if n.Type.IsGate() {
			d := dm(n)
			if d < 1 {
				return nil, fmt.Errorf("sim: delay model gave %d for gate %q (must be >= 1)", d, n.Name)
			}
			s.delay[id] = d
		}
	}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset restores flip-flops to initial values and settles the network under
// the all-false input vector without recording activity.
func (s *Simulator) Reset() error {
	for i := range s.val {
		s.val[i] = false
	}
	for _, f := range s.nw.FFs() {
		s.val[f] = s.nw.Node(f).InitVal
	}
	order, err := s.nw.TopoOrder()
	if err != nil {
		return err
	}
	var buf []bool
	for _, id := range order {
		n := s.nw.Node(id)
		switch n.Type {
		case logic.Const0:
			s.val[id] = false
		case logic.Const1:
			s.val[id] = true
		default:
			buf = buf[:0]
			for _, f := range n.Fanin {
				buf = append(buf, s.val[f])
			}
			s.val[id] = logic.EvalGate(n.Type, buf)
		}
	}
	s.Counts.clear()
	s.cycleBase = 0
	return nil
}

// loadState seeds the simulator's node values from a full per-node value
// snapshot (e.g. the settled state at a vector-stream split point) without
// recording any activity, and zeroes the counters. It lets a shard of a
// partitioned Monte Carlo run start exactly where the previous shard's
// last vector left the network, so chunked simulation is bit-identical to
// one sequential pass.
func (s *Simulator) loadState(vals []bool, cycleBase int) {
	copy(s.val, vals)
	s.Counts.clear()
	s.cycleBase = cycleBase
}

// Value returns the present value of a node.
func (s *Simulator) Value(id logic.NodeID) bool { return s.val[id] }

// SetTracer installs (or, with nil, removes) a transition observer. The
// tracer sees every net change of every subsequent Cycle; it does not see
// Reset. Attach obsv.NetTrace here to dump VCD waveforms.
func (s *Simulator) SetTracer(tr Tracer) { s.tracer = tr }

// qkey packs a (time, node) pair into one dedup map key.
func qkey(t int, id logic.NodeID) uint64 {
	return uint64(t)<<32 | uint64(uint32(id))
}

func (s *Simulator) schedule(t int, id logic.NodeID) {
	k := qkey(t, id)
	if s.inQ[k] {
		return
	}
	s.inQ[k] = true
	b, ok := s.buckets[t]
	if !ok {
		if n := len(s.bucketPool); n > 0 {
			b = s.bucketPool[n-1][:0]
			s.bucketPool = s.bucketPool[:n-1]
		}
		s.heapPush(t)
	}
	s.buckets[t] = append(b, id)
	s.outstanding++
	if s.outstanding > s.cycleHWM {
		s.cycleHWM = s.outstanding
	}
}

// heapPush adds a time to the binary min-heap of pending event times.
func (s *Simulator) heapPush(t int) {
	h := append(s.timeHeap, t)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	s.timeHeap = h
}

// heapPop removes and returns the earliest pending event time.
func (s *Simulator) heapPop() int {
	h := s.timeHeap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	s.timeHeap = h
	return top
}

// Cycle applies one clock cycle: flip-flops load the currently settled D
// values, then the primary inputs change to in, and the resulting transient
// is simulated event-by-event until quiescence. Initial FF/PI edges at time
// 0 count as useful transitions of those source nets but are not included
// in gate-output statistics.
func (s *Simulator) Cycle(in []bool) (CycleStats, error) {
	if len(in) != len(s.nw.PIs()) {
		return CycleStats{}, fmt.Errorf("sim: Cycle got %d inputs, network has %d", len(in), len(s.nw.PIs()))
	}
	initial := s.initialBuf
	copy(initial, s.val)
	if s.tracer != nil {
		s.tracer.BeginCycle(s.cycleBase + s.cycles)
	}

	// Clock edge: FFs adopt D values; then PIs change.
	changed := s.changedBuf[:0]
	newFF := s.newFFBuf
	for i, f := range s.nw.FFs() {
		newFF[i] = s.val[s.nw.Node(f).Fanin[0]]
	}
	for i, f := range s.nw.FFs() {
		if s.val[f] != newFF[i] {
			s.val[f] = newFF[i]
			changed = append(changed, f)
			// Register-output toggles are tracked per node (they drive real
			// capacitance) but excluded from the combinational CycleStats.
			s.nodeTransitions[f]++
			s.nodeUseful[f]++
		}
	}
	for i, pi := range s.nw.PIs() {
		if s.val[pi] != in[i] {
			s.val[pi] = in[i]
			changed = append(changed, pi)
		}
	}
	if s.tracer != nil {
		for _, id := range changed {
			s.tracer.Change(0, id, s.val[id])
		}
	}

	// Seed events: every consumer of a changed source evaluates after its
	// own delay.
	s.timeHeap = s.timeHeap[:0]
	s.outstanding, s.cycleHWM = 0, 0
	for _, id := range changed {
		for _, c := range s.nw.Node(id).Fanout() {
			cn := s.nw.Node(c)
			if cn == nil || cn.Type == logic.DFF {
				continue
			}
			s.schedule(s.delay[c], c)
		}
	}
	s.changedBuf = changed

	stats := CycleStats{}
	buf := s.evalBuf[:0]
	for len(s.timeHeap) > 0 {
		t := s.heapPop()
		ids := s.buckets[t]
		delete(s.buckets, t)
		s.outstanding -= len(ids)
		for _, id := range ids {
			delete(s.inQ, qkey(t, id))
			n := s.nw.Node(id)
			if n == nil || !n.Type.IsGate() {
				continue
			}
			buf = buf[:0]
			for _, f := range n.Fanin {
				buf = append(buf, s.val[f])
			}
			nv := logic.EvalGate(n.Type, buf)
			if nv == s.val[id] {
				continue
			}
			s.val[id] = nv
			stats.Transitions++
			s.nodeTransitions[id]++
			if s.tracer != nil {
				s.tracer.Change(t, id, nv)
			}
			if t > stats.SettleTime {
				stats.SettleTime = t
			}
			for _, c := range n.Fanout() {
				cn := s.nw.Node(c)
				if cn == nil || cn.Type == logic.DFF {
					continue
				}
				s.schedule(t+s.delay[c], c)
			}
		}
		s.bucketPool = append(s.bucketPool, ids[:0])
	}
	s.evalBuf = buf

	for _, id := range s.gates {
		if s.val[id] != initial[id] {
			stats.Useful++
			s.nodeUseful[id]++
		}
	}
	stats.Spurious = stats.Transitions - stats.Useful
	s.cycles++
	if s.tracer != nil {
		s.tracer.EndCycle(stats.SettleTime)
	}
	// Registry updates happen once per cycle, never per event, so the
	// instrumented simulator stays within noise of the seed throughput.
	s.met.events.Add(int64(stats.Transitions))
	s.met.spurious.Add(int64(stats.Spurious))
	s.met.cycles.Inc()
	s.met.queueHWM.Max(float64(s.cycleHWM))
	s.met.settle.Observe(int64(stats.SettleTime))
	return stats, nil
}

// Run simulates a sequence of input vectors and returns the aggregate
// statistics.
func (s *Simulator) Run(vectors [][]bool) (Totals, error) {
	var tot Totals
	for _, v := range vectors {
		cs, err := s.Cycle(v)
		if err != nil {
			return tot, err
		}
		tot.Transitions += int64(cs.Transitions)
		tot.Useful += int64(cs.Useful)
		tot.Spurious += int64(cs.Spurious)
		if cs.SettleTime > tot.MaxSettle {
			tot.MaxSettle = cs.SettleTime
		}
		tot.Cycles++
	}
	return tot, nil
}

// Totals aggregates statistics over a simulation run.
type Totals struct {
	Cycles      int
	Transitions int64
	Useful      int64
	Spurious    int64
	MaxSettle   int
}

// SpuriousFraction is the share of all transitions that were glitches.
func (t Totals) SpuriousFraction() float64 {
	if t.Transitions == 0 {
		return 0
	}
	return float64(t.Spurious) / float64(t.Transitions)
}
