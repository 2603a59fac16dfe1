package dontcare

import (
	"repro/internal/logic"
)

// witnessBits is log2 of the witness filter's row count R: all 2^n rows of
// the n sources when n <= witnessBits, otherwise 2^witnessBits rows drawn
// from a fixed-seed generator.
const witnessBits = 11

// witnessSeed seeds the row generator for sources too many to enumerate.
const witnessSeed = 0x9E3779B97F4A7C15

// witness is the bit-parallel simulation filter in front of the exact
// analysis: the values of every live node over R rows of the analyzer's
// sources, 64 rows per word. A row that drives gate g's fanins to local
// pattern p and under which flipping g changes some endpoint lies in
// cons_p ∧ ¬ODC, so p is neither a controllability nor an observability
// don't-care. A gate whose 2^k patterns all have such a witness row has
// an empty don't-care set, which the exact analysis would only confirm.
type witness struct {
	nw   *logic.Network
	vars []logic.NodeID
	// bits is log2 of the row count; a gate with more fanins cannot see
	// all its patterns.
	bits  int
	words int
	// src[w*len(vars)+i] is word w of source vars[i].
	src []uint64
	// sig[w*stride+id] is word w of node id.
	sig    []uint64
	stride int
	cv     *logic.Compiled
	pos    []int // pos[id]: index of id in cv.Order, -1 outside it
	ends   []logic.NodeID
	// Per-gate scratch: the flipped word, the transitive fanout in
	// topological order and its membership stamps, and the witnessed
	// patterns.
	alt   []uint64
	tfo   []int32
	stamp []int
	epoch int
	seen  []bool
}

// newWitness simulates nw over the rows of vars (the analyzer's sources:
// PIs, then FF outputs).
func newWitness(nw *logic.Network, vars []logic.NodeID) (*witness, error) {
	s := &witness{nw: nw, vars: vars, bits: min(len(vars), witnessBits)}
	s.words = max(1, (1<<s.bits)/64)
	n := len(vars)
	s.src = make([]uint64, s.words*n)
	rng := uint64(witnessSeed)
	for w := 0; w < s.words; w++ {
		for i := 0; i < n; i++ {
			if n <= witnessBits {
				// Below 64 rows the lanes repeat the enumeration: every
				// lane is still a real row.
				s.src[w*n+i] = logic.RowWord(i, w)
				continue
			}
			// splitmix64.
			rng += 0x9E3779B97F4A7C15
			z := rng
			z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
			z = (z ^ z>>27) * 0x94D049BB133111EB
			s.src[w*n+i] = z ^ z>>31
		}
	}
	return s, s.refresh()
}

// refresh re-simulates every live node of the network as it now stands;
// the pass calls it after each accepted rewrite.
func (s *witness) refresh() error {
	nw := s.nw
	cv, err := nw.Compile()
	if err != nil {
		return err
	}
	s.cv = cv
	s.stride = nw.NumNodes()
	s.sig = grow(s.sig, s.words*s.stride)
	s.alt = grow(s.alt, s.stride)
	s.pos = grow(s.pos, s.stride)
	s.stamp = grow(s.stamp, s.stride)
	for i := range s.pos {
		s.pos[i] = -1
	}
	for i, id := range cv.Order {
		s.pos[id] = i
	}
	s.ends = append(s.ends[:0], nw.POs()...)
	for _, ff := range nw.FFs() {
		s.ends = append(s.ends, nw.Node(ff).Fanin[0])
	}
	n := len(s.vars)
	for w := 0; w < s.words; w++ {
		val := s.word(w)
		for i, v := range s.vars {
			val[v] = s.src[w*n+i]
		}
		for _, id := range cv.Order {
			val[id] = cv.EvalWord(id, val)
		}
	}
	return nil
}

// word returns word w of every node's signature, indexed by NodeID.
func (s *witness) word(w int) []uint64 {
	return s.sig[w*s.stride : (w+1)*s.stride]
}

// witnessed marks every local fanin pattern of gate id that has a witness
// row — one that produces it and, with useODC, under which flipping the
// gate changes a PO or an FF D input — and reports whether all 2^k have
// one, in which case the gate's don't-care set is empty. The marks are
// valid until the next call; they are nil for a gate with more fanins
// than the rows can tell apart.
func (s *witness) witnessed(id logic.NodeID, useODC bool) (marks []bool, all bool) {
	fanins := s.nw.Node(id).Fanin
	k := len(fanins)
	if k > s.bits {
		return nil, false
	}
	s.seen = grow(s.seen, 1<<k)
	seen := s.seen
	clear(seen)
	if useODC {
		s.fanout(id)
	}
	left := len(seen)
	for w := 0; w < s.words && left > 0; w++ {
		rows := ^uint64(0)
		if useODC {
			rows = s.observable(w, id)
		}
		val := s.word(w)
		for p := range seen {
			if seen[p] {
				continue
			}
			m := rows
			for j, f := range fanins {
				if p>>j&1 != 0 {
					m &= val[f]
				} else {
					m &^= val[f]
				}
			}
			if m != 0 {
				seen[p] = true
				left--
			}
		}
	}
	return seen, left == 0
}

// fanout collects id's transitive fanout, in topological order, into
// s.tfo; combinational paths stop at flip-flops, as the ODC's do.
func (s *witness) fanout(id logic.NodeID) {
	s.epoch++
	s.stamp[id] = s.epoch
	s.tfo = s.tfo[:0]
	cv := s.cv
	for _, c := range cv.Order[s.pos[id]+1:] {
		for _, f := range cv.Fanin[cv.FaninStart[c]:cv.FaninStart[c+1]] {
			if s.stamp[f] == s.epoch {
				s.stamp[c] = s.epoch
				s.tfo = append(s.tfo, c)
				break
			}
		}
	}
}

// observable returns the rows of word w under which inverting gate id
// changes some endpoint: s.tfo (from fanout) is re-evaluated on a copy of
// the word with id's lanes flipped.
func (s *witness) observable(w int, id logic.NodeID) uint64 {
	val := s.word(w)
	alt := s.alt
	copy(alt, val)
	alt[id] = ^val[id]
	for _, c := range s.tfo {
		alt[c] = s.cv.EvalWord(c, alt)
	}
	var obs uint64
	for _, e := range s.ends {
		obs |= alt[e] ^ val[e]
	}
	return obs
}

// grow returns s resliced to n elements, reallocating only when its
// capacity is short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
