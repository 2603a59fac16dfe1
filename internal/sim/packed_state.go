package sim

import (
	"math/bits"

	"repro/internal/logic"
)

// PackedState is a complete, reusable snapshot of a packed zero-delay run:
// every node's 64-lane value words for every block of the vector stream,
// the settled all-zero reset baseline, and the per-node transition counts.
// It is the baseline that incremental re-estimation splices into — after a
// local rewrite, UpdateCone re-evaluates only the dirty cone against the
// stored clean-lane values and updates the snapshot in place, leaving it
// exactly as if the whole stream had been re-run from scratch on the new
// structure.
//
// All per-node slices are indexed by NodeID and grown as the network adds
// node slots; dead slots carry stale values that are never read (a live
// node outside the cone cannot have a dead or dirty fanin).
type PackedState struct {
	// Blocks[b][id] holds node id's packed lanes for the b'th 64-vector
	// block of the captured stream (primary inputs included).
	Blocks [][]uint64
	// Lanes[b] is the number of valid lanes in block b: 64 everywhere
	// except possibly the final block.
	Lanes []int
	// Reset is the settled network state under the all-zero input vector —
	// the baseline lane 0 of block 0 is compared against.
	Reset []bool
	// Trans is the per-node zero-delay transition count over the stream.
	Trans []int64
	// Gate records which nodes were counted as gates in GateTransitions,
	// so splicing can keep the aggregate exact across deletions.
	Gate []bool
	// Cycles is the stream length in vectors.
	Cycles int
	// GateTransitions is the aggregate transition count over gate nodes —
	// the Totals.Transitions a full Run over the stream would report.
	GateTransitions int64
}

// UpdateCone re-evaluates exactly the cone's member nodes against the
// captured stream and splices the results into the state: member value
// words, reset bits and transition counts are recomputed from their fanins
// (stored clean values or earlier members — Cone.Members is in topological
// order), removed nodes' counts are retired, and GateTransitions is
// adjusted by the exact per-node deltas.
//
// Correctness relies on the cone invariant that every live node outside
// the cone has only live, non-dirty fanins: its stored words are what a
// full re-run would recompute, so reusing them and re-deriving only the
// cone reproduces the full run bit for bit (the shared logic.Compiled
// kernels and the same carry-chain popcount make this structural, not
// numeric).
// The caller is responsible for the cone being current (derived from the
// nodes that changed since the last capture or update, see logic.Shape)
// and for Cone.Sources being empty — a changed input or flip-flop changes
// the stream itself, which no cone update can repair.
func (st *PackedState) UpdateCone(nw *logic.Network, cone *logic.Cone) error {
	if n := nw.NumNodes(); n > len(st.Reset) {
		st.Reset = append(st.Reset, make([]bool, n-len(st.Reset))...)
		st.Trans = append(st.Trans, make([]int64, n-len(st.Trans))...)
		st.Gate = append(st.Gate, make([]bool, n-len(st.Gate))...)
		for b, vals := range st.Blocks {
			st.Blocks[b] = append(vals, make([]uint64, n-len(vals))...)
		}
	}
	for _, id := range cone.Removed {
		if int(id) >= len(st.Trans) {
			continue
		}
		if st.Gate[id] {
			st.GateTransitions -= st.Trans[id]
		}
		st.Trans[id] = 0
		st.Gate[id] = false
	}
	cv, err := nw.Compile()
	if err != nil {
		return err
	}
	carry := make([]uint64, len(cone.Members))
	fresh := make([]int64, len(cone.Members))
	for i, id := range cone.Members {
		st.Reset[id] = cv.Eval(int32(id), st.Reset)
		carry[i] = uint64(logic.Bit(st.Reset[id]))
	}
	for b, vals := range st.Blocks {
		k := st.Lanes[b]
		mask := ^uint64(0)
		if k < 64 {
			mask = 1<<uint(k) - 1
		}
		for i, id := range cone.Members {
			w := cv.EvalWord(int32(id), vals)
			vals[id] = w
			diff := (w ^ (w<<1 | carry[i])) & mask
			if diff != 0 {
				fresh[i] += int64(bits.OnesCount64(diff))
			}
			carry[i] = w >> uint(k-1) & 1
		}
	}
	for i, id := range cone.Members {
		if st.Gate[id] {
			st.GateTransitions -= st.Trans[id]
		}
		isGate := nw.Node(id).Type.IsGate()
		if isGate {
			st.GateTransitions += fresh[i]
		}
		st.Gate[id] = isGate
		st.Trans[id] = fresh[i]
	}
	return nil
}

// Activity returns a node's transitions per cycle under the captured
// stream, mirroring PackedSimulator.Activity.
func (st *PackedState) Activity(id logic.NodeID) float64 {
	if st.Cycles == 0 || int(id) >= len(st.Trans) {
		return 0
	}
	return float64(st.Trans[id]) / float64(st.Cycles)
}
