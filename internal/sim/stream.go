package sim

import (
	"context"

	"repro/internal/logic"
)

// Stream is the zero-delay sequential engine: it runs a Stimulus cycle by
// cycle on the network's compiled kernel (logic.Network.Compile). Each
// cycle loads its vector from the stimulus, sets the primary inputs,
// settles the logic with Compiled.Eval in the compiled topological order
// (Compiled.Settle's loop, counting as it goes), shows the settled
// pre-edge values to an optional observer and then loads every flip-flop
// from its FFD input. It shares its vector loop, and so its context
// checks, with the event-driven Simulator. It is the one activity
// measurement behind clock gating, precomputation, guarded evaluation,
// the flip-flop probabilities of Monteiro and Devadas [28] and the Monte
// Carlo estimate of sequential networks.
//
// Unlike the combinational engines, a Stream counts transitions on every
// node, sources included: a primary input transitions when its value
// differs from the previous cycle's, a flip-flop when it loads a new
// value at the edge. Each node changes at most once per cycle, so the
// counts are the toggles between consecutive post-edge snapshots.
//
// A new Stream starts from the settled reset state (Compiled.Reset).
// Consecutive Run calls continue one stream, as PackedSimulator.Run does,
// and Clear zeroes the counters while keeping the present values as the
// reference the next transition is counted against. That gives the two
// counting conventions:
//   - from reset: Run counts the first cycle against the reset state, and
//     Cycles() is the stimulus length;
//   - from the first cycle (MeasureSequential): run vector 0, Clear, run
//     the rest, and Cycles() is one less, so Activity is 0 for fewer than
//     two vectors.
type Stream struct {
	// Counts holds the per-node transitions since the last Clear.
	Counts
	c      *logic.Compiled
	pis    []logic.NodeID
	val    []bool
	next   []bool  // flip-flop D values latched at the edge
	ffOnes []int64 // per flip-flop, the loads of a 1 since the last Clear
}

// NewStream returns a stream over nw in the settled reset state. The
// network must not change while the stream is in use.
func NewStream(nw *logic.Network) (*Stream, error) {
	c, err := nw.Compile()
	if err != nil {
		return nil, err
	}
	s := &Stream{
		Counts: newCounts(nw.NumNodes(), true),
		c:      c,
		pis:    nw.PIs(),
		val:    make([]bool, nw.NumNodes()),
		next:   make([]bool, len(c.FFs)),
		ffOnes: make([]int64, len(c.FFs)),
	}
	c.Reset(s.val)
	return s, nil
}

// MeasureSequential runs the stimulus on a new stream of nw and counts
// from the state the first cycle leaves: Cycles() is st.Len()-1. observe,
// if not nil, sees every cycle, the first included (see Run). It is the
// convention of the sequential technique measurements, which charge the
// toggles between consecutive post-edge snapshots of the run.
func MeasureSequential(nw *logic.Network, st Stimulus, observe func(val []bool)) (*Stream, error) {
	s, err := NewStream(nw)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	k := min(1, st.Len())
	if err := s.run(ctx, st, 0, k, observe); err != nil {
		return nil, err
	}
	s.Clear()
	return s, s.run(ctx, st, k, st.Len(), observe)
}

// Run applies the stimulus one vector per cycle, continuing from the
// present state. observe, if not nil, is called once per cycle after the
// logic settles and before the flip-flops load, with every node's value
// indexed by NodeID: the cycle's inputs, the settled gates and the
// present flip-flop state. It must not modify or keep the slice. Run
// checks ctx every ctxCheckCycles cycles and stops with ctx.Err() once
// it is done; the cycles already run stay counted.
func (s *Stream) Run(ctx context.Context, st Stimulus, observe func(val []bool)) error {
	return s.run(ctx, st, 0, st.Len(), observe)
}

// run applies vectors lo … hi-1 of the stimulus.
func (s *Stream) run(ctx context.Context, st Stimulus, lo, hi int, observe func(val []bool)) error {
	c, val, t := s.c, s.val, s.nodeTransitions
	return drive(ctx, st, lo, hi, len(s.pis), func(in []bool) error {
		for i, pi := range s.pis {
			t[pi] += int64(logic.Bit(in[i] != val[pi]))
			val[pi] = in[i]
		}
		for _, id := range c.Order {
			v := c.Eval(id, val)
			t[id] += int64(logic.Bit(v != val[id]))
			val[id] = v
		}
		if observe != nil {
			observe(val)
		}
		for i, d := range c.FFD {
			s.next[i] = val[d]
		}
		for i, f := range c.FFs {
			v := s.next[i]
			t[f] += int64(logic.Bit(v != val[f]))
			s.ffOnes[i] += int64(logic.Bit(v))
			val[f] = v
		}
		s.cycles++
		return nil
	})
}

// Clear zeroes the transition and one counters and the cycle count. The
// present values stay, so the next Run counts against them.
func (s *Stream) Clear() {
	s.Counts.clear()
	clear(s.ffOnes)
}

// FFOnes returns how many counted cycles flip-flop i (in the network's
// FFs order) loaded a 1 at the edge.
func (s *Stream) FFOnes(i int) int64 { return s.ffOnes[i] }

// Fraction returns k/n, or 0 when n is 0: the share of n cycles in which
// an observed condition held.
func Fraction(k, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(k) / float64(n)
}
