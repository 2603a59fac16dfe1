package sim

import (
	"fmt"

	"repro/internal/logic"
)

// RunRows is the [][]bool loop Stream.Run ran before it took a Stimulus,
// kept as the oracle TestStreamMatchesRowsLoop checks Run and
// MeasureSequential against.
func (s *Stream) RunRows(vectors [][]bool, observe func(val []bool)) error {
	c, val, t := s.c, s.val, s.nodeTransitions
	for _, in := range vectors {
		if len(in) != len(s.pis) {
			return fmt.Errorf("sim: stream got %d-bit vector, network has %d inputs", len(in), len(s.pis))
		}
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
	}
	return nil
}
