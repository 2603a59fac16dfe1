package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/logic"
)

// PackedSimulator is the bit-parallel zero-delay engine: it evaluates 64
// input vectors per machine word, one lane per vector, with
// logic.Compiled.EvalWord over the network's levelized schedule. Per-node
// transition counts are accumulated with popcounts of prev^next lane
// differences, so a whole 64-cycle block costs one settle pass plus one
// OnesCount64 per node.
//
// The engine is exact for zero-delay semantics: its per-node transition
// counts are identical to the scalar event-driven simulator's useful
// (zero-delay) counts over the same vector stream, including the initial
// transition away from the all-zero reset settle. It deliberately has no
// notion of time inside a cycle, so it cannot see glitches — use
// Simulator (or MeasureRunCtx) when spurious transitions matter.
//
// PackedSimulator requires a purely combinational network: lanes are
// evaluated simultaneously, and a flip-flop chain would impose a serial
// dependency between lanes. It assumes the network is not structurally
// modified while the simulator is in use.
type PackedSimulator struct {
	nw  *logic.Network
	cv  *logic.Compiled // the network's compiled view and levelized schedule
	pis []logic.NodeID

	val   []uint64 // packed lane values per node
	carry []uint64 // previous cycle's value (bit 0) per node
	reset []bool   // settled state under the all-zero input vector

	// Counts holds the zero-delay transition counts since the last Reset;
	// its useful counts are the transitions themselves.
	Counts
}

// NewPacked creates a packed zero-delay simulator for a combinational
// network. The levelized schedule comes from the network's cached
// topological order, so repeated constructions on an unchanged network do
// not re-derive it.
func NewPacked(nw *logic.Network) (*PackedSimulator, error) {
	if n := len(nw.FFs()); n > 0 {
		return nil, fmt.Errorf("sim: packed simulator requires a combinational network (%q has %d flip-flops)", nw.Name, n)
	}
	cv, err := nw.Compile()
	if err != nil {
		return nil, err
	}
	ps := &PackedSimulator{
		nw:     nw,
		cv:     cv,
		pis:    nw.PIs(),
		val:    make([]uint64, nw.NumNodes()),
		carry:  make([]uint64, nw.NumNodes()),
		reset:  make([]bool, nw.NumNodes()),
		Counts: newCounts(nw.NumNodes(), true),
	}
	// Settle the all-zero input vector once: this is the baseline every
	// node transitions away from on the first cycle, matching
	// Simulator.Reset exactly.
	cv.Reset(ps.reset)
	ps.Reset()
	return ps, nil
}

// Reset zeroes the per-node transition counters and the cycle count, and
// re-bases the transition reference to the settled all-zero reset state.
// After Reset the next Run is indistinguishable from the first Run on a
// fresh simulator: the first vector of its stream is compared against the
// reset baseline, so the initial transition away from reset is counted
// (again). Without an intervening Reset, consecutive Run calls instead
// treat their vector streams as one continuous stream — the final lane of
// the previous call, not the reset state, is the comparison reference for
// the first lane of the next (see Run).
func (ps *PackedSimulator) Reset() {
	ps.Counts.clear()
	for id, v := range ps.reset {
		if v {
			ps.carry[id] = 1
		} else {
			ps.carry[id] = 0
		}
	}
}

// Run simulates the vector stream in blocks of 64 lanes and returns the
// aggregate zero-delay totals for this call (Spurious is 0 and MaxSettle
// is meaningless under zero delay). It packs the stream and runs it as
// RunStimulus does; a ragged stream fails before any cycle is counted.
//
// Accumulation semantics: per-node counters accumulate across calls until
// Reset, and the call boundary is seamless — the last vector of one Run
// and the first vector of the next are treated as adjacent cycles of a
// single stream (the carried final lane, not the reset baseline, is the
// first comparison reference). Splitting a stream across Run calls
// therefore yields exactly the counts of one concatenated Run; use Reset
// to start an independent stream instead.
func (ps *PackedSimulator) Run(vectors [][]bool) (Totals, error) {
	st, err := PackVectors(vectors)
	if err != nil {
		return Totals{}, err
	}
	return ps.RunStimulus(st)
}

// RunStimulus is Run over a packed stream, with the same accumulation
// semantics.
func (ps *PackedSimulator) RunStimulus(st Stimulus) (Totals, error) {
	return ps.run(st, nil)
}

// RunCapture resets the simulator, runs the full vector stream, and
// records the complete packed lane state into capture: every node's value
// words for every 64-lane block, the reset baseline, and the per-node
// transition counts. The recording shares Run's code path, so the
// captured counts are bit-identical to what Run would report on a fresh
// simulator. The resulting PackedState is the baseline for incremental
// cone re-evaluation (PackedState.UpdateCone); any previously accumulated
// counts are discarded by the initial Reset so that the state is
// self-consistent: its counters describe exactly the captured stream.
func (ps *PackedSimulator) RunCapture(st Stimulus, capture *PackedState) (Totals, error) {
	ps.Reset()
	capture.Blocks = capture.Blocks[:0]
	capture.Lanes = capture.Lanes[:0]
	tot, err := ps.run(st, capture)
	if err != nil {
		return tot, err
	}
	capture.Reset = append(capture.Reset[:0], ps.reset...)
	capture.Trans = append(capture.Trans[:0], ps.nodeTransitions...)
	capture.Gate = capture.Gate[:0]
	for i := 0; i < ps.nw.NumNodes(); i++ {
		n := ps.nw.Node(logic.NodeID(i))
		capture.Gate = append(capture.Gate, n != nil && n.Type.IsGate())
	}
	capture.Cycles = ps.cycles
	capture.GateTransitions = tot.Transitions
	return tot, nil
}

// run loads each block's input words straight into the primary inputs'
// lanes, settles the block and counts its transitions.
func (ps *PackedSimulator) run(st Stimulus, capture *PackedState) (Totals, error) {
	var tot Totals
	if !st.fits(len(ps.pis)) {
		return tot, fmt.Errorf("sim: packed Run got %d-bit vectors, network has %d inputs", st.Width(), len(ps.pis))
	}
	for b := 0; b*64 < st.Len(); b++ {
		k := min(st.Len()-b*64, 64)
		for i, w := range st.block(b) {
			ps.val[ps.pis[i]] = w
		}
		// One word-level settle pass evaluates all 64 lanes of every gate.
		for _, id := range ps.cv.Order {
			ps.val[id] = ps.cv.EvalWord(id, ps.val)
		}
		// Count transitions: lane j toggles iff it differs from lane j-1
		// (lane 0 compares against the carried-over previous value), so
		// XOR against the left-shifted word and popcount the valid lanes.
		// Constants, the only non-gates in the order, never toggle.
		mask := laneMask(k)
		for _, id := range ps.cv.Order {
			w := ps.val[id]
			if diff := (w ^ (w<<1 | ps.carry[id])) & mask; diff != 0 {
				c := int64(bits.OnesCount64(diff))
				ps.nodeTransitions[id] += c
				tot.Transitions += c
			}
			ps.carry[id] = w >> uint(k-1) & 1
		}
		if capture != nil {
			capture.Blocks = append(capture.Blocks, append([]uint64(nil), ps.val...))
			capture.Lanes = append(capture.Lanes, k)
		}
		ps.cycles += k
		tot.Cycles += k
	}
	tot.Useful = tot.Transitions
	return tot, nil
}
