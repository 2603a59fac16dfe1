package profile

import (
	"repro/internal/logic"
	"repro/internal/sim"
)

// Collector is a sim.Tracer that accumulates per-node transition counts and
// glitch shares from an event-driven run. Unlike the simulator's own
// counters it sees *every* Change event — sources at t=0 included — so a
// collector attached as a simulated power.Spec Tracer observes exactly the
// activity the report charges for.
//
// Within a cycle a net that toggles an even number of times ends where it
// started: all of its transitions were spurious. An odd count contains one
// useful transition; the remainder are glitches.
type Collector struct {
	transitions []int64 // cumulative per node
	useful      []int64
	cycleCount  []int32        // per-cycle toggle count, cleared at EndCycle
	changed     []logic.NodeID // nodes touched this cycle
	cycles      int
}

var _ sim.Tracer = (*Collector)(nil)

// NewCollector creates a collector for a network with numNodes node slots
// (logic.Network.NumNodes).
func NewCollector(numNodes int) *Collector {
	return &Collector{
		transitions: make([]int64, numNodes),
		useful:      make([]int64, numNodes),
		cycleCount:  make([]int32, numNodes),
	}
}

// BeginCycle implements sim.Tracer.
func (c *Collector) BeginCycle(cycle int) {}

// Change implements sim.Tracer.
func (c *Collector) Change(t int, id logic.NodeID, val bool) {
	if int(id) >= len(c.transitions) {
		return
	}
	c.transitions[id]++
	if c.cycleCount[id] == 0 {
		c.changed = append(c.changed, id)
	}
	c.cycleCount[id]++
}

// EndCycle implements sim.Tracer: fold the cycle's toggle parities into the
// useful counts and reset the per-cycle state.
func (c *Collector) EndCycle(settle int) {
	for _, id := range c.changed {
		if c.cycleCount[id]%2 == 1 {
			c.useful[id]++
		}
		c.cycleCount[id] = 0
	}
	c.changed = c.changed[:0]
	c.cycles++
}

// Cycles returns the number of completed cycles observed.
func (c *Collector) Cycles() int { return c.cycles }

// Transitions returns the cumulative transition count observed on a node.
func (c *Collector) Transitions(id logic.NodeID) int64 {
	if int(id) >= len(c.transitions) {
		return 0
	}
	return c.transitions[id]
}

// Activity returns observed transitions per cycle for a node.
func (c *Collector) Activity(id logic.NodeID) float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.Transitions(id)) / float64(c.cycles)
}

// GlitchShare returns the spurious fraction of a node's observed
// transitions, in [0,1] (0 for untouched nodes).
func (c *Collector) GlitchShare(id logic.NodeID) float64 {
	if int(id) >= len(c.transitions) || c.transitions[id] == 0 {
		return 0
	}
	return float64(c.transitions[id]-c.useful[id]) / float64(c.transitions[id])
}
