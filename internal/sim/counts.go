package sim

import "repro/internal/logic"

// Counts is the per-node transition record shared by every engine in this
// package: Simulator, PackedSimulator, the merged Measure and Stream all
// embed it, so its accessors are the one activity surface power
// estimators read. Simulator, PackedSimulator and Measure record no
// transitions on primary inputs — their activity is a property of the
// vector stream, not the circuit — while Stream counts every node, inputs
// and flip-flops included.
type Counts struct {
	nodeTransitions []int64
	// nodeUseful aliases nodeTransitions in zero-delay engines, where every
	// transition is useful by definition.
	nodeUseful []int64
	cycles     int
}

// newCounts allocates counters for n node slots. Zero-delay engines share
// one slice for total and useful counts.
func newCounts(n int, zeroDelay bool) Counts {
	c := Counts{nodeTransitions: make([]int64, n)}
	c.nodeUseful = c.nodeTransitions
	if !zeroDelay {
		c.nodeUseful = make([]int64, n)
	}
	return c
}

// clear zeroes every counter and the cycle count.
func (c *Counts) clear() {
	clear(c.nodeTransitions)
	clear(c.nodeUseful)
	c.cycles = 0
}

// add accumulates another event-driven run's counters into c (both must
// keep separate useful counts).
func (c *Counts) add(o *Counts) {
	for id := range c.nodeTransitions {
		c.nodeTransitions[id] += o.nodeTransitions[id]
		c.nodeUseful[id] += o.nodeUseful[id]
	}
	c.cycles += o.cycles
}

// Cycles returns the number of cycles counted.
func (c *Counts) Cycles() int { return c.cycles }

// Transitions returns the raw transition count on a node's output net
// (glitches included).
func (c *Counts) Transitions(id logic.NodeID) int64 { return c.nodeTransitions[id] }

// UsefulTransitions returns the zero-delay (functional) transition count of
// a node: at most one per cycle.
func (c *Counts) UsefulTransitions(id logic.NodeID) int64 { return c.nodeUseful[id] }

// Activity returns the node's transitions per cycle — the N factor of
// Eqn. 1 for the node's output net.
func (c *Counts) Activity(id logic.NodeID) float64 {
	if c.cycles == 0 {
		return 0
	}
	return float64(c.nodeTransitions[id]) / float64(c.cycles)
}
