package bdd

import "sort"

// maxGrowth caps how far the live node count may grow past the best size
// seen while a variable is in flight before the sift direction is
// abandoned.
const maxGrowth = 1.2

// ReorderStats reports what a Reorder call did.
type ReorderStats struct {
	Vars   int // variables sifted
	Swaps  int // adjacent-level swaps performed
	Before int // live internal nodes reachable from the roots, pre-sift
	After  int // live internal nodes after sifting
}

// Reorder runs Rudell-style sifting: each variable, most-populated level
// first, is moved through the order by in-place adjacent-level swaps and
// left at the position minimizing the live node count, subject to the
// maxGrowth cap.
//
// roots must list every Ref the caller still holds; everything not
// reachable from them is garbage-collected into the manager's free list
// first, exactly as GC does (external Refs in roots remain valid across
// the call — swaps rewrite nodes in place). The ITE cache is invalidated.
//
// Reorder is budget-aware: swap work is charged against MaxSteps, the
// node high-water is checked against MaxNodes, and the context is polled
// between swaps. On a trip the manager is poisoned as usual and the
// sticky error returned; swaps themselves are atomic, so the graph stays
// structurally consistent even then.
func (m *Manager) Reorder(roots []Ref) (ReorderStats, error) {
	if m.checked && m.err != nil {
		return ReorderStats{}, m.err
	}
	s := &sifter{m: m}
	s.init(roots)
	st := ReorderStats{Before: s.size()}

	// Sift the most-populated levels first: moving a fat variable is
	// where the big wins are, and doing it early keeps later sifts cheap.
	type varLoad struct {
		v   int
		pop int
	}
	loads := make([]varLoad, m.nvars)
	for l := 0; l < m.nvars; l++ {
		loads[l] = varLoad{v: int(m.level2var[l]), pop: len(s.bucket(l))}
	}
	sort.SliceStable(loads, func(i, j int) bool { return loads[i].pop > loads[j].pop })

	var err error
	for _, ld := range loads {
		if ld.pop == 0 {
			continue // nothing tests this variable; moving it is a no-op
		}
		if err = s.sift(ld.v); err != nil {
			break
		}
		st.Vars++
	}
	st.Swaps = s.swaps
	st.After = s.size()
	m.met.reorderRuns.Inc()
	m.met.reorderSwaps.Add(int64(s.swaps))
	if saved := st.Before - st.After; saved > 0 {
		m.met.reorderSaved.Add(int64(saved))
	}
	m.flush()
	return st, err
}

// sifter holds the per-Reorder bookkeeping: reference counts (parent
// edges plus root pins) and per-level node lists.
type sifter struct {
	m        *Manager
	rc       []int32 // per-Ref: incoming edges from live nodes + root pins
	buckets  [][]Ref // per-level live node lists; lazily filtered
	stamp    []int32 // per-Ref dedup stamp for bucket filtering
	stampGen int32
	swaps    int
	// deps and indep are swap's scratch lists, reused across swaps.
	deps  []depNode
	indep []Ref
}

// depNode is a level-l node that swap rewrites: its Ref, the four
// cofactors over the two swapped variables, and its old children.
type depNode struct {
	r                  Ref
	f00, f01, f10, f11 Ref
	oldLo, oldHi       Ref
}

// init garbage-collects everything unreachable from roots (GC's
// mark-and-free), drops the ITE cache with its pages (sifting leaves far
// fewer nodes to cache), keeps the survivors' reference counts, and
// populates the level buckets in Ref order (deterministic).
func (s *sifter) init(roots []Ref) {
	m := s.m
	s.rc = m.collect(roots)
	m.iteC = iteTable{}
	s.stamp = make([]int32, len(m.nodes))
	s.buckets = make([][]Ref, m.nvars)
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		if lv := m.nodes[r].level; lv != freeLevel {
			s.buckets[lv] = append(s.buckets[lv], r)
		}
	}
}

// size returns the live internal node count that sifting minimizes.
func (s *sifter) size() int { return s.m.live - 2 }

// bucket returns the live nodes currently at level l, compacting stale
// entries (freed or re-leveled slots) out of the stored slice. The stamp
// pass drops duplicates a recycled slot could otherwise introduce.
func (s *sifter) bucket(l int) []Ref {
	s.stampGen++
	raw := s.buckets[l]
	out := raw[:0]
	for _, r := range raw {
		if s.m.nodes[r].level == int32(l) && s.stamp[r] != s.stampGen {
			s.stamp[r] = s.stampGen
			out = append(out, r)
		}
	}
	s.buckets[l] = out
	return out
}

// mkAt finds or creates (level, lo, hi) during a swap. Unlike Manager.mk
// it maintains the sifter's reference counts and buckets and performs no
// budget checks: budget state is only examined between swaps, so a swap
// can never be torn by a mid-flight trip.
func (s *sifter) mkAt(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	m := s.m
	tab := &m.unique[level]
	if r := m.lookup(tab, lo, hi); r != 0 {
		return r
	}
	r := m.alloc(tab, level, lo, hi)
	if len(s.rc) < len(m.nodes) {
		s.rc = append(s.rc, 0)
		s.stamp = append(s.stamp, 0)
	}
	if lo > 1 {
		s.rc[lo]++
	}
	if hi > 1 {
		s.rc[hi]++
	}
	s.buckets[level] = append(s.buckets[level], r)
	return r
}

// swap exchanges levels l and l+1 in place. Nodes keep their Refs: a
// level-l node independent of the lower variable just moves down a
// level; a dependent one is rewritten as (y ? (x?f11:f01) : (x?f10:f00))
// with freshly interned level-(l+1) cofactor nodes. The phase order —
// capture cofactor quads, unlink the dependent nodes, exchange the two
// levels' tables (the risers and the independent sinkers keep their
// chains), rewrite the dependent nodes, then release their old children
// — makes unique-table collisions impossible mid-swap.
func (s *sifter) swap(l int) {
	m := s.m
	ll, lh := int32(l), int32(l+1)
	xs := s.bucket(l)
	ys := s.bucket(l + 1)

	deps, indep := s.deps[:0], s.indep[:0]
	for _, x := range xs {
		n := m.nodes[x]
		loDep := m.nodes[n.lo].level == lh
		hiDep := m.nodes[n.hi].level == lh
		if !loDep && !hiDep {
			indep = append(indep, x)
			continue
		}
		d := depNode{r: x, oldLo: n.lo, oldHi: n.hi}
		if loDep {
			d.f00, d.f01 = m.nodes[n.lo].lo, m.nodes[n.lo].hi
		} else {
			d.f00, d.f01 = n.lo, n.lo
		}
		if hiDep {
			d.f10, d.f11 = m.nodes[n.hi].lo, m.nodes[n.hi].hi
		} else {
			d.f10, d.f11 = n.hi, n.hi
		}
		deps = append(deps, d)
	}

	// Unlink the dependent nodes, whose children are about to change,
	// then exchange the two levels' tables: the rising ys and the sinking
	// independent xs keep their chains (the hash ignores the level), so a
	// swap costs O(|level l| + re-leveling).
	for _, d := range deps {
		m.unlink(&m.unique[ll], d.r)
	}
	m.unique[ll], m.unique[lh] = m.unique[lh], m.unique[ll]
	for _, y := range ys {
		m.nodes[y].level = ll
	}
	for _, x := range indep {
		m.nodes[x].level = lh
	}

	// Rebuild the two buckets: level l holds the risen ys plus the
	// rewritten dependents (the ys slice moves wholesale); level l+1
	// holds the independent sinkers plus whatever mkAt interns below, in
	// the storage of xs, whose nodes now live in deps and indep.
	s.buckets[l] = ys
	s.buckets[l+1] = append(xs[:0], indep...)

	tabL := &m.unique[ll]
	for _, d := range deps {
		a0 := s.mkAt(lh, d.f00, d.f10)
		a1 := s.mkAt(lh, d.f01, d.f11)
		if a0 > 1 {
			s.rc[a0]++
		}
		if a1 > 1 {
			s.rc[a1]++
		}
		m.nodes[d.r] = node{level: ll, lo: a0, hi: a1}
		m.insert(tabL, d.r)
		s.buckets[l] = append(s.buckets[l], d.r)
	}
	// Old children are released only after every dependent node has been
	// rewritten: the captured quads must stay alive until the last one.
	for _, d := range deps {
		m.deref(s.rc, d.oldLo)
		m.deref(s.rc, d.oldHi)
	}
	s.deps, s.indep = deps, indep

	xv, yv := m.level2var[l], m.level2var[l+1]
	m.level2var[l], m.level2var[l+1] = yv, xv
	m.var2level[xv], m.var2level[yv] = lh, ll
	s.swaps++
	m.steps += int64(len(xs)+len(ys)) + 1
}

// check enforces the manager's budget and context between swaps.
func (s *sifter) check() error {
	m := s.m
	if m.err != nil {
		return m.err
	}
	if m.budget.MaxSteps > 0 && m.steps > m.budget.MaxSteps {
		m.fail("steps")
		return m.err
	}
	if m.budget.MaxNodes > 0 && m.live > m.budget.MaxNodes {
		m.fail("nodes")
		return m.err
	}
	if m.ctx != nil {
		if err := m.ctx.Err(); err != nil {
			m.fail(err.Error())
			return m.err
		}
	}
	return nil
}

// sift moves variable v through the whole order (nearer end first),
// remembers the position minimizing the live node count, and moves it
// back there. Each direction is abandoned once the size exceeds
// maxGrowth times the best size seen.
func (s *sifter) sift(v int) error {
	m := s.m
	n := m.nvars
	best := s.size()
	bestL := int(m.var2level[v])
	limit := func() int { return int(float64(best)*maxGrowth) + 2 }
	note := func() {
		if s.size() < best {
			best, bestL = s.size(), int(m.var2level[v])
		}
	}
	down := func() error {
		for int(m.var2level[v]) < n-1 {
			if err := s.check(); err != nil {
				return err
			}
			s.swap(int(m.var2level[v]))
			note()
			if s.size() > limit() {
				return nil
			}
		}
		return nil
	}
	up := func() error {
		for int(m.var2level[v]) > 0 {
			if err := s.check(); err != nil {
				return err
			}
			s.swap(int(m.var2level[v]) - 1)
			note()
			if s.size() > limit() {
				return nil
			}
		}
		return nil
	}
	var err error
	if n-1-int(m.var2level[v]) <= int(m.var2level[v]) {
		if err = down(); err == nil {
			err = up()
		}
	} else {
		if err = up(); err == nil {
			err = down()
		}
	}
	if err != nil {
		return err
	}
	for int(m.var2level[v]) < bestL {
		if err := s.check(); err != nil {
			return err
		}
		s.swap(int(m.var2level[v]))
	}
	for int(m.var2level[v]) > bestL {
		if err := s.check(); err != nil {
			return err
		}
		s.swap(int(m.var2level[v]) - 1)
	}
	return nil
}
