// Package sim provides event-driven gate-level simulation of logic
// networks under assignable delay models, with per-net switching-activity
// and glitch (spurious transition) accounting.
//
// The survey's logic-level power claims hinge on the distinction between
// zero-delay activity (each net toggles at most once per cycle) and real
// timed activity, where unequal path delays create spurious transitions
// that account for 10–40% of switching power in typical combinational
// circuits (Ghosh et al. [16]). This package measures both.
//
// The event-driven Simulator runs on the network's compiled view
// (logic.Network.Compile): gate opcodes, CSR fanin lists and consumer
// lists, shared with every other scalar evaluator. It queues gate
// evaluations on a timing wheel: a ring of per-time FIFO slots indexed by
// cycle time, deduplicated by a per-node time stamp. Same-time events are
// evaluated in the order they were scheduled, which fixes every count. The
// per-node Counts are the package's one transition record: the power
// estimators and the profiler's glitch shares read them. A cycle's useful transitions are counted over the
// gates that changed in it, recorded at their first change, so a cycle
// costs time in proportion to its activity rather than to the circuit.
package sim

import (
	"context"
	"fmt"

	"repro/internal/logic"
	"repro/internal/obsv"
)

// DelayModel assigns an integer propagation delay to each node. Gate delays
// must be >= 1; sources (inputs, constants, flip-flop outputs) are ignored.
// The Simulator's event wheel has a slot per time unit of the largest
// delay, so delays are meant to be small.
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

// Simulator performs cycle-by-cycle event-driven simulation over the
// network's compiled view (logic.Network.Compile): opcodes, CSR fanin
// lists and consumer lists, so an event costs neither a node lookup nor a
// fanin copy. The network must not change while the simulator is in use.
//
// The event queue is a timing wheel of per-time FIFO slots, a power of two
// longer than the largest gate delay, so every pending event (at most that
// delay ahead of the time being drained) has a slot of its own. A cycle
// costs time in proportion to its activity, not to the circuit: each gate
// is recorded with its value at its first change in the cycle, and only
// those gates are checked for a useful (net) transition. On top of the
// shared compiled view (9 bytes per node, 8 per fanin edge) the simulator
// holds 42 bytes per node: its value, a first-change flag and record, its
// delay, its dedup stamp and its two counters. The slots keep their
// capacity across cycles, so the steady-state hot loop does not allocate.
type Simulator struct {
	nw    *logic.Network
	cv    *logic.Compiled
	delay []int
	val   []bool

	// Counts holds the per-node cumulative transition counts across all
	// simulated cycles since the last Reset.
	Counts

	met metrics

	// wheel[t&(len(wheel)-1)] holds the nodes to evaluate at cycle time
	// t, in scheduling order. schedAt[id] is the absolute time (epoch+t)
	// of id's latest scheduled evaluation: with a fixed delay per node
	// and times drained in increasing order, a node's schedule times
	// never decrease, so an event is already queued exactly when its
	// time equals the stamp. epoch advances past every cycle's last time
	// so stale stamps never match.
	wheel       [][]int32
	schedAt     []int
	epoch       int
	outstanding int // events scheduled but not yet evaluated
	cycleHWM    int // high-water mark of outstanding within the cycle

	// touched[:n] lists the n gates that changed in the current cycle,
	// each with its value before its first change; inTouched marks them.
	// It has a slot per node, so recording never grows it.
	touched   []firstChange
	inTouched []bool

	// Per-cycle scratch buffers.
	newFFBuf   []bool
	changedBuf []int32
}

// firstChange is a gate that changed in the current cycle and the value
// it held when the cycle began.
type firstChange struct {
	id      int32
	initial bool
}

// New creates a simulator for the network under the given delay model.
// Flip-flops start at their initial values; all other nets start at the
// value they settle to under the all-zero input vector.
func New(nw *logic.Network, dm DelayModel) (*Simulator, error) {
	if dm == nil {
		dm = UnitDelay
	}
	cv, err := nw.Compile()
	if err != nil {
		return nil, err
	}
	n := nw.NumNodes()
	s := &Simulator{
		nw:        nw,
		cv:        cv,
		delay:     make([]int, n),
		val:       make([]bool, n),
		Counts:    newCounts(n, false),
		met:       newMetrics(),
		schedAt:   make([]int, n),
		inTouched: make([]bool, n),
		touched:   make([]firstChange, n),
		newFFBuf:  make([]bool, len(cv.FFs)),
	}
	maxDelay := 1
	for _, id := range nw.Gates() {
		nd := nw.Node(id)
		d := dm(nd)
		if d < 1 {
			return nil, fmt.Errorf("sim: delay model gave %d for gate %q (must be >= 1)", d, nd.Name)
		}
		s.delay[id] = d
		maxDelay = max(maxDelay, d)
	}
	slots := 2
	for slots <= maxDelay {
		slots *= 2
	}
	s.wheel = make([][]int32, slots)
	s.Reset()
	return s, nil
}

// Reset restores flip-flops to initial values and settles the network under
// the all-false input vector without recording activity. The error is
// always nil: New has already compiled the network.
func (s *Simulator) Reset() error {
	s.cv.Reset(s.val)
	s.Counts.clear()
	return nil
}

// loadState seeds the simulator's node values from a full per-node value
// snapshot (e.g. the settled state at a vector-stream split point) without
// recording any activity, and zeroes the counters. It lets a shard of a
// partitioned Monte Carlo run start exactly where the previous shard's
// last vector left the network, so chunked simulation is bit-identical to
// one sequential pass.
func (s *Simulator) loadState(vals []bool) {
	copy(s.val, vals)
	s.Counts.clear()
}

// Value returns the present value of a node.
func (s *Simulator) Value(id logic.NodeID) bool { return s.val[id] }

// fanout schedules every consumer of id, each after its own delay from
// cycle time t, skipping events already queued.
func (s *Simulator) fanout(t int, id int32) {
	mask := len(s.wheel) - 1
	cv := s.cv
	for _, c := range cv.Cons[cv.ConsStart[id]:cv.ConsStart[id+1]] {
		tc := t + s.delay[c]
		if s.schedAt[c] == s.epoch+tc {
			continue
		}
		s.schedAt[c] = s.epoch + tc
		s.wheel[tc&mask] = append(s.wheel[tc&mask], c)
		s.outstanding++
	}
}

// Cycle applies one clock cycle: flip-flops load the currently settled D
// values, then the primary inputs change to in, and the resulting transient
// is simulated event-by-event until quiescence. A flip-flop's edge at time
// 0 counts as a useful transition of its output net; primary-input edges
// are not counted. Neither enters the gate-output CycleStats.
func (s *Simulator) Cycle(in []bool) (CycleStats, error) {
	pis := s.nw.PIs()
	if len(in) != len(pis) {
		return CycleStats{}, fmt.Errorf("sim: Cycle got %d inputs, network has %d", len(in), len(pis))
	}

	// Clock edge: FFs adopt D values; then PIs change.
	cv := s.cv
	changed := s.changedBuf[:0]
	newFF := s.newFFBuf
	for i, d := range cv.FFD {
		newFF[i] = s.val[d]
	}
	for i, f := range cv.FFs {
		if s.val[f] != newFF[i] {
			s.val[f] = newFF[i]
			changed = append(changed, f)
			// Register-output toggles are tracked per node (they drive real
			// capacitance) but excluded from the combinational CycleStats.
			s.nodeTransitions[f]++
			s.nodeUseful[f]++
		}
	}
	for i, pi := range pis {
		if s.val[pi] != in[i] {
			s.val[pi] = in[i]
			changed = append(changed, int32(pi))
		}
	}

	// Seed events: every consumer of a changed source evaluates after its
	// own delay. Then drain the wheel one time step at a time; a delay
	// of at least 1 means nothing lands in the slot being drained, so the
	// count of outstanding events only grows while a slot drains and its
	// high-water mark is read once per slot.
	s.outstanding = 0
	for _, id := range changed {
		s.fanout(0, id)
	}
	s.cycleHWM = s.outstanding
	s.changedBuf = changed

	stats := CycleStats{}
	touched := s.touched
	nt := 0
	t := 0
	for s.outstanding > 0 {
		t++
		slot := &s.wheel[t&(len(s.wheel)-1)]
		ids := *slot
		s.outstanding -= len(ids)
		for _, id := range ids {
			nv := cv.Eval(id, s.val)
			if nv == s.val[id] {
				continue
			}
			if !s.inTouched[id] {
				s.inTouched[id] = true
				touched[nt] = firstChange{id, !nv}
				nt++
			}
			s.val[id] = nv
			stats.Transitions++
			s.nodeTransitions[id]++
			stats.SettleTime = t
			s.fanout(t, id)
		}
		*slot = ids[:0]
		s.cycleHWM = max(s.cycleHWM, s.outstanding)
	}
	s.epoch += t

	// Only a gate that changed can end the cycle on a new value.
	for _, fc := range touched[:nt] {
		s.inTouched[fc.id] = false
		if s.val[fc.id] != fc.initial {
			stats.Useful++
			s.nodeUseful[fc.id]++
		}
	}
	stats.Spurious = stats.Transitions - stats.Useful
	s.cycles++
	// Registry updates happen once per cycle, never per event, so the
	// instrumented simulator stays within noise of the uninstrumented one.
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
	return s.RunCtx(context.Background(), vectors)
}

// ctxCheckCycles is how many cycles a run simulates between checks of
// its context.
const ctxCheckCycles = 64

// RunCtx is Run under a context: it checks ctx before every
// ctxCheckCycles-th cycle and stops with ctx.Err() once the context is
// done. Uncancelled, the results are those of Run.
func (s *Simulator) RunCtx(ctx context.Context, vectors [][]bool) (Totals, error) {
	var tot Totals
	for i, v := range vectors {
		if i%ctxCheckCycles == 0 {
			if err := ctx.Err(); err != nil {
				return tot, err
			}
		}
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
