package bdd

// GC reclaims every node unreachable from roots into the free list, which
// mk reuses, and clears the ITE computed cache, whose entries may name
// reclaimed nodes. roots must list every Ref the caller still holds: those
// Refs, and every node reachable from them, stay valid and keep denoting
// the same functions, while any other Ref is invalidated. GC returns the
// number of nodes freed. On a poisoned manager it does nothing.
//
// Long-lived managers that repeatedly build and drop temporary functions
// (the don't-care pass builds each gate's ODC and candidate functions)
// call GC between batches so the arena stays bounded by the live working
// set.
func (m *Manager) GC(roots []Ref) int {
	if m.checked && m.err != nil {
		return 0
	}
	before := m.live
	m.collect(roots)
	// Cleared in place: a long-lived manager refills the cache at about
	// its previous size, so keeping the capacity saves the regrowth.
	m.iteC.clear()
	return before - m.live
}

// collect is the mark-and-free shared by GC and Reorder. It counts
// references — parent edges from allocated nodes plus one pin per root —
// frees every unreferenced node in ascending Ref order with a cascading
// release (so the free list, and therefore later Ref reuse, is
// deterministic), and returns the reference counts of the survivors,
// which sifting keeps maintaining. The caller must invalidate the ITE
// cache, whose entries may name freed nodes.
func (m *Manager) collect(roots []Ref) []int32 {
	rc := make([]int32, len(m.nodes))
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		n := m.nodes[r]
		if n.level == freeLevel {
			continue
		}
		if n.lo > 1 {
			rc[n.lo]++
		}
		if n.hi > 1 {
			rc[n.hi]++
		}
	}
	for _, r := range roots {
		if r > 1 {
			rc[r]++
		}
	}
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		if m.nodes[r].level != freeLevel && rc[r] == 0 {
			m.release(rc, r)
		}
	}
	return rc
}

// deref drops one reference to g, reclaiming it when none remain.
func (m *Manager) deref(rc []int32, g Ref) {
	if g <= 1 {
		return
	}
	rc[g]--
	if rc[g] == 0 {
		m.release(rc, g)
	}
}

// release reclaims an unreferenced node: it is unlinked from its unique
// table, the slot is pushed on the free list with the freeLevel sentinel
// (keeping its lo and hi), and its children are dereferenced in cascade.
func (m *Manager) release(rc []int32, g Ref) {
	n := m.nodes[g]
	m.unlink(&m.unique[n.level], g)
	m.nodes[g].level, m.nodes[g].next = freeLevel, m.free
	m.free = g
	m.live--
	m.deref(rc, n.lo)
	m.deref(rc, n.hi)
}
