package bdd

// scratch holds the memos of the graph walks (Probability, Restrict,
// NodeCount, Support, Leq). They are owned by the manager and reused
// across calls: a walk bumps the generation instead of clearing, and a
// slot counts as visited only when its stamp equals the current
// generation. The arrays track the arena's capacity, so no call allocates
// or clears memory proportional to the arena. Sharing them is why a
// Manager is not safe for concurrent use, not even for reads.
type scratch struct {
	gen   uint32
	stamp []uint32  // per Ref: == gen once visited in the current walk
	prob  []float64 // Probability values, valid where stamped
	ref   []Ref     // Restrict results, valid where stamped
	pairs pairSet   // Leq's visited (f, g) pairs
}

// begin starts a walk over the current arena; the caller sizes the value
// array it uses with grown.
func (m *Manager) begin() {
	s := &m.memo
	if len(s.stamp) < len(m.nodes) {
		s.stamp = make([]uint32, cap(m.nodes))
	}
	s.gen++
	if s.gen == 0 {
		clear(s.stamp)
		s.gen = 1
	}
}

// grown returns buf with at least the arena's length. Its old contents
// are only meaningful where stamped, so a regrown buffer starts empty.
func grown[T any](m *Manager, buf []T) []T {
	if len(buf) < len(m.nodes) {
		return make([]T, cap(m.nodes))
	}
	return buf
}

// pairSet is a generation-stamped open-addressed set of Ref pairs.
type pairSet struct {
	keys  []uint64
	stamp []uint32
	gen   uint32
	n     int
}

const pairSetFirst = 64

// reset empties the set in O(1).
func (s *pairSet) reset() {
	s.gen++
	s.n = 0
	if s.gen == 0 {
		clear(s.stamp)
		s.gen = 1
	}
}

// add inserts (f, g) and reports whether it was absent.
func (s *pairSet) add(f, g Ref) bool {
	if 2*(s.n+1) > len(s.keys) {
		s.grow()
	}
	k := uint64(uint32(f))<<32 | uint64(uint32(g))
	mask := len(s.keys) - 1
	for i := int((k*0x9E3779B97F4A7C15)>>32) & mask; ; i = (i + 1) & mask {
		if s.stamp[i] != s.gen {
			s.keys[i], s.stamp[i] = k, s.gen
			s.n++
			return true
		}
		if s.keys[i] == k {
			return false
		}
	}
}

// grow doubles the set, reinserting the current generation's keys.
func (s *pairSet) grow() {
	keys, stamp, gen := s.keys, s.stamp, s.gen
	size := max(pairSetFirst, 2*len(keys))
	s.keys, s.stamp, s.gen, s.n = make([]uint64, size), make([]uint32, size), 1, 0
	for i, k := range keys {
		if stamp[i] == gen {
			s.add(Ref(k>>32), Ref(uint32(k)))
		}
	}
}
