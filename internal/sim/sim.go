// Package sim provides event-driven unit-delay gate-level simulation of
// logic networks, with per-net switching-activity and glitch (spurious
// transition) accounting.
//
// The survey's logic-level power claims hinge on the distinction between
// zero-delay activity (each net toggles at most once per cycle) and real
// timed activity, where unequal path delays create spurious transitions
// that account for 10–40% of switching power in typical combinational
// circuits (Ghosh et al. [16]). This package measures both.
//
// The event-driven Simulator runs on the network's compiled view
// (logic.Network.Compile), shared with every other scalar evaluator. Every
// gate has a delay of one time unit, so it queues gate evaluations on two
// flat FIFO lists, the time being drained and the next, deduplicated by a
// per-node time stamp, and keeps each gate's count of ones over its fanin
// pins so an evaluation is one opcode lookup. Same-time events are
// evaluated in the order they were scheduled, which fixes every count. The
// per-node Counts are the package's one transition record: the power
// estimators and the profiler's glitch shares read them.
//
// Every engine runs one vector format, the packed Stimulus: 64 vectors
// per word per input. The packed engine reads its words as input lanes;
// the event-driven Simulator and the zero-delay sequential Stream share
// one loop that loads a vector per cycle from it.
package sim

import (
	"context"
	"fmt"

	"repro/internal/logic"
	"repro/internal/obsv"
)

// DelayModel assigns an integer propagation delay to each node. The
// Simulator accepts only models that give every gate a delay of 1;
// sources (inputs, constants, flip-flop outputs) are ignored.
type DelayModel func(n *logic.Node) int

// UnitDelay gives every gate a delay of 1 — the classic unit-delay model
// used for glitch analysis.
func UnitDelay(*logic.Node) int { return 1 }

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

// Simulator performs cycle-by-cycle event-driven unit-delay simulation
// over the network's compiled view (logic.Network.Compile): opcodes, CSR
// fanin lists and consumer lists, so an event costs neither a node lookup
// nor a fanin copy. The network must not change while the simulator is in
// use.
//
// An event scheduled while time t drains is due at t+1, so the queue is
// two flat lists: the slot being drained and the next one. A cycle costs
// time in proportion to its activity, not to the circuit: each gate is
// recorded with its value at its first change in the cycle, and only
// those gates are checked for a useful (net) transition. On top of the
// shared compiled view (9 bytes per node, 8 per fanin edge) the simulator
// holds 46 bytes per node: its value, a first-change flag and record, its
// ones count, its dedup stamp, its two counters and a slot in each queue.
// Every list is allocated at its largest size, so the hot loop does not
// allocate, and an append writes before deciding whether to keep the
// entry, so it does not branch on the data.
type Simulator struct {
	nw  *logic.Network
	cv  *logic.Compiled
	val []bool
	// ones[id] is the number of gate id's fanin pins whose value is 1; a
	// net read on two pins counts twice.
	ones []int32

	// Counts holds the per-node cumulative transition counts across all
	// simulated cycles since the last Reset.
	Counts

	met metrics

	// cur and next hold the two queues; a slot holds each gate at most
	// once, plus one spare entry. schedAt[id] is the absolute time
	// (epoch+t) of id's latest scheduled evaluation: times drain in
	// increasing order, so an event is already queued exactly when its
	// time equals the stamp. epoch advances past every cycle's last time
	// so stale stamps never match.
	cur, next []int32
	schedAt   []int
	epoch     int
	cycleHWM  int // the cycle's largest queue length

	// touched[:n] lists the n gates that changed in the current cycle,
	// each with its value before its first change; inTouched marks them.
	// Like the queues, it has a slot per node plus a spare.
	touched   []firstChange
	inTouched []bool

	// Per-cycle scratch buffers; changedBuf has a slot per flip-flop and
	// input.
	newFFBuf   []bool
	changedBuf []int32
}

// firstChange is a gate that changed in the current cycle and the value
// it held when the cycle began.
type firstChange struct {
	id      int32
	initial bool
}

// New creates a simulator for the network under the given delay model,
// which must give every gate a delay of 1 (nil means UnitDelay).
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
	for _, id := range nw.Gates() {
		nd := nw.Node(id)
		if d := dm(nd); d != 1 {
			return nil, fmt.Errorf("sim: delay model gave %d for gate %q (the simulator is unit-delay: must be 1)", d, nd.Name)
		}
	}
	n := nw.NumNodes()
	s := &Simulator{
		nw:         nw,
		cv:         cv,
		val:        make([]bool, n),
		ones:       make([]int32, n),
		Counts:     newCounts(n, false),
		met:        newMetrics(),
		schedAt:    make([]int, n),
		cur:        make([]int32, n+1),
		next:       make([]int32, n+1),
		inTouched:  make([]bool, n),
		touched:    make([]firstChange, n+1),
		newFFBuf:   make([]bool, len(cv.FFs)),
		changedBuf: make([]int32, len(cv.FFs)+len(nw.PIs())),
	}
	s.Reset()
	return s, nil
}

// Reset restores flip-flops to initial values and settles the network under
// the all-false input vector without recording activity. The error is
// always nil: New has already compiled the network.
func (s *Simulator) Reset() error {
	s.cv.Reset(s.val)
	s.recount()
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
	s.recount()
	s.Counts.clear()
}

// recount sets every gate's ones count from the present values, in time
// proportional to the fanin edges.
func (s *Simulator) recount() {
	cv := s.cv
	for id := range s.ones {
		k := 0
		for _, f := range cv.Fanin[cv.FaninStart[id]:cv.FaninStart[id+1]] {
			k += logic.Bit(s.val[f])
		}
		s.ones[id] = int32(k)
	}
}

// Value returns the present value of a node.
func (s *Simulator) Value(id logic.NodeID) bool { return s.val[id] }

// fanout records that id has just changed to v: it moves the ones count
// of each consuming pin and queues every consumer not yet queued at time
// stamp in q[n:], returning the queue's new length.
func (s *Simulator) fanout(q []int32, n, stamp int, id int32, v bool) int {
	d := int32(2*logic.Bit(v) - 1)
	cv := s.cv
	for _, c := range cv.Cons[cv.ConsStart[id]:cv.ConsStart[id+1]] {
		s.ones[c] += d
		q[n] = c
		n += logic.Bit(s.schedAt[c] != stamp)
		s.schedAt[c] = stamp
	}
	return n
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
	changed := s.changedBuf
	nch := 0
	newFF := s.newFFBuf
	for i, d := range cv.FFD {
		newFF[i] = s.val[d]
	}
	for i, f := range cv.FFs {
		if s.val[f] != newFF[i] {
			s.val[f] = newFF[i]
			changed[nch] = f
			nch++
			// Register-output toggles are tracked per node (they drive real
			// capacitance) but excluded from the combinational CycleStats.
			s.nodeTransitions[f]++
			s.nodeUseful[f]++
		}
	}
	for i, pi := range pis {
		changed[nch] = int32(pi)
		nch += logic.Bit(s.val[pi] != in[i])
		s.val[pi] = in[i]
	}

	// Seed events: every consumer of a changed source evaluates at time
	// 1. Then drain one time step at a time: a gate that changes at t
	// queues its consumers for t+1, so the next queue only grows while a
	// slot drains and the high-water mark is read once per slot.
	cur, next := s.cur, s.next
	nc := 0
	for _, id := range changed[:nch] {
		nc = s.fanout(cur, nc, s.epoch+1, id, s.val[id])
	}
	s.cycleHWM = nc

	stats := CycleStats{}
	touched := s.touched
	nt := 0
	t := 0
	for nc > 0 {
		t++
		nn := 0
		for _, id := range cur[:nc] {
			nv := cv.OnesEval(id, s.ones[id])
			if nv == s.val[id] {
				continue
			}
			touched[nt] = firstChange{id, !nv}
			nt += 1 - logic.Bit(s.inTouched[id])
			s.inTouched[id] = true
			s.val[id] = nv
			stats.Transitions++
			s.nodeTransitions[id]++
			stats.SettleTime = t
			nn = s.fanout(next, nn, s.epoch+t+1, id, nv)
		}
		s.cycleHWM = max(s.cycleHWM, nn)
		cur, next, nc = next, cur, nn
	}
	s.epoch += t

	// Only a gate that changed can end the cycle on a new value.
	for _, fc := range touched[:nt] {
		s.inTouched[fc.id] = false
		u := logic.Bit(s.val[fc.id] != fc.initial)
		stats.Useful += u
		s.nodeUseful[fc.id] += int64(u)
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

// Run simulates every vector of the stream and returns the aggregate
// statistics.
func (s *Simulator) Run(st Stimulus) (Totals, error) {
	return s.run(context.Background(), st, 0, st.Len())
}

// run simulates vectors lo … hi-1 of the stream, one cycle each, under
// drive's context checks.
func (s *Simulator) run(ctx context.Context, st Stimulus, lo, hi int) (Totals, error) {
	var tot Totals
	err := drive(ctx, st, lo, hi, len(s.nw.PIs()), func(in []bool) error {
		cs, err := s.Cycle(in)
		if err != nil {
			return err
		}
		tot.add(Totals{Cycles: 1, Transitions: int64(cs.Transitions), Useful: int64(cs.Useful),
			Spurious: int64(cs.Spurious), MaxSettle: cs.SettleTime})
		return nil
	})
	return tot, err
}

// Totals aggregates statistics over a simulation run.
type Totals struct {
	Cycles      int
	Transitions int64
	Useful      int64
	Spurious    int64
	MaxSettle   int
}

// add accumulates o: counts sum, MaxSettle takes the larger.
func (t *Totals) add(o Totals) {
	t.Cycles += o.Cycles
	t.Transitions += o.Transitions
	t.Useful += o.Useful
	t.Spurious += o.Spurious
	t.MaxSettle = max(t.MaxSettle, o.MaxSettle)
}

// SpuriousFraction is the share of all transitions that were glitches.
func (t Totals) SpuriousFraction() float64 {
	if t.Transitions == 0 {
		return 0
	}
	return float64(t.Spurious) / float64(t.Transitions)
}
