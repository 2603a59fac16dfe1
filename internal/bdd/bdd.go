// Package bdd implements reduced ordered binary decision diagrams (ROBDDs)
// with per-level unique tables and an ITE computed table.
//
// The manager supports the operations the toolkit needs for exact power
// analysis and logic optimization: Boolean connectives, cofactoring,
// existential and universal quantification (used by precomputation and
// guarded-evaluation passes), composition, minterm counting, and exact
// signal-probability evaluation given independent input probabilities.
//
// Nodes are referenced by integer handles (Ref). Refs 0 and 1 are the
// constant functions. Variables are decoupled from levels through a
// var2level/level2var permutation so the order can change at runtime:
// Reorder applies Rudell-style sifting over in-place adjacent-level swaps,
// which preserves every externally held Ref. Nodes are freed only by GC
// (and by Reorder, which starts with one): both reclaim the nodes
// unreachable from a caller-supplied root set into a free list that mk
// reuses.
//
// No table is a Go map. A node is a 16-byte arena slot: level, lo, hi and
// a chain link. The arena doubles when it is full, so its capacity is at
// most twice the slots in use (live or on the free list) and a build of n
// nodes copies fewer than n slots in all. Each level's unique table is a
// power-of-two array of bucket heads whose chains run through the slots,
// 4 to 16 bytes per node once a level outgrows its first 8 heads. The
// computed table is non-lossy: 20-byte entries in 4096-entry pages,
// chained from a head array of 4 to 16 bytes per entry; growing it adds a
// page and relinks the chains, never copying a full page. Both head
// arrays grow 4x at a time. Graph walks reuse generation-stamped memos
// owned by the manager, so a Manager is not safe for concurrent use,
// reads included.
package bdd

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obsv"
)

// Ref is a handle to a BDD node within a Manager. The zero value is the
// constant-false function.
type Ref int32

// Constant functions.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level  int32 // position in the variable order; terminals use maxLevel
	lo, hi Ref
	// next chains the node into its level's unique-table bucket, or a
	// freed slot into the free list; 0 ends either chain.
	next Ref
}

const (
	maxLevel = int32(1<<30 - 1)
	// freeLevel marks an arena slot reclaimed by GC and awaiting
	// reuse through the free list. Freed slots are unreachable from any
	// live function, so no traversal ever observes this sentinel.
	freeLevel = int32(-1)
)

// metrics holds the manager's registry handles, captured at New. All
// handles are nil (no-op) when observability is disabled.
type metrics struct {
	uniqueHits     *obsv.Counter // bdd.unique.hits
	uniqueMisses   *obsv.Counter // bdd.unique.misses
	iteHits        *obsv.Counter // bdd.ite.hits
	iteMisses      *obsv.Counter // bdd.ite.misses
	nodes          *obsv.Gauge   // bdd.nodes: high-water node count
	budgetExceeded *obsv.Counter // bdd.budget.exceeded
	reorderRuns    *obsv.Counter // bdd.reorder.runs
	reorderSwaps   *obsv.Counter // bdd.reorder.swaps
	reorderSaved   *obsv.Counter // bdd.reorder.saved
}

func newMetrics() metrics {
	r := obsv.Default()
	return metrics{
		uniqueHits:     r.Counter("bdd.unique.hits"),
		uniqueMisses:   r.Counter("bdd.unique.misses"),
		iteHits:        r.Counter("bdd.ite.hits"),
		iteMisses:      r.Counter("bdd.ite.misses"),
		nodes:          r.Gauge("bdd.nodes"),
		budgetExceeded: r.Counter("bdd.budget.exceeded"),
		reorderRuns:    r.Counter("bdd.reorder.runs"),
		reorderSwaps:   r.Counter("bdd.reorder.swaps"),
		reorderSaved:   r.Counter("bdd.reorder.saved"),
	}
}

// tally counts the table events of one manager. The hot paths bump these
// plain fields; flush adds them to the shared registry counters when a
// public operation returns, so concurrent managers do not contend on the
// counters' cache lines.
type tally struct {
	uniqueHits, uniqueMisses, iteHits, iteMisses int64
	// peak is the highest live count reached; published is the last
	// value given to the bdd.nodes gauge.
	peak, published int
}

// flush publishes the tally to the registry.
func (m *Manager) flush() {
	t := &m.tally
	if t.uniqueHits|t.uniqueMisses|t.iteHits|t.iteMisses != 0 || t.peak > t.published {
		m.publish()
	}
}

func (m *Manager) publish() {
	t := &m.tally
	add := func(c *obsv.Counter, n *int64) {
		if *n != 0 {
			c.Add(*n)
			*n = 0
		}
	}
	add(m.met.uniqueHits, &t.uniqueHits)
	add(m.met.uniqueMisses, &t.uniqueMisses)
	add(m.met.iteHits, &t.iteHits)
	add(m.met.iteMisses, &t.iteMisses)
	if t.peak > t.published {
		m.met.nodes.Max(float64(t.peak))
		t.published = t.peak
	}
}

// Manager owns a set of BDD nodes over a fixed number of variables.
// Variable i starts at level i (lower levels nearer the root); Reorder may
// permute the order afterwards, tracked by var2level/level2var.
//
// A manager may carry a resource Budget and a context (SetBudget,
// SetContext). When either trips, the manager records a sticky BudgetError
// (Err) and every subsequent operation returns False without doing work;
// the manager and all results computed on it must then be discarded. A
// manager whose budget never trips builds exactly the same node graph as
// an unbudgeted one.
//
// A Manager is not safe for concurrent use, reads included: every graph
// walk (Probability, Restrict, NodeCount, Support, Leq) reuses memos the
// manager owns.
type Manager struct {
	nodes []node
	// unique holds one table per level rather than one global table
	// keyed by (level, lo, hi), so an adjacent-level swap moves a whole
	// level by exchanging two tables, and reordering cost scales with the
	// nodes that actually test the moving variable.
	unique []uniqueTable
	iteC   iteTable
	memo   scratch
	nvars  int
	met    metrics
	tally  tally

	// var2level[i] is the level variable i currently occupies;
	// level2var is its inverse. Both start as the identity.
	var2level []int32
	level2var []int32
	// free heads the list of arena slots reclaimed by GC or Reorder,
	// chained through node.next and reused LIFO by mk (0 = empty). live
	// counts arena slots in use (including the two terminals).
	free Ref
	live int

	budget  Budget
	ctx     context.Context // nil = no cancellation polling
	steps   int64           // cumulative recursion steps (ITE + Restrict)
	checked bool            // true when budget limits or a context are set
	err     error           // sticky *BudgetError once a limit trips
}

// New creates a manager with nvars variables.
func New(nvars int) *Manager {
	m := &Manager{
		unique:    make([]uniqueTable, nvars),
		nvars:     nvars,
		met:       newMetrics(),
		var2level: make([]int32, nvars),
		level2var: make([]int32, nvars),
	}
	for i := 0; i < nvars; i++ {
		m.var2level[i] = int32(i)
		m.level2var[i] = int32(i)
	}
	// Terminal nodes: index 0 = false, 1 = true.
	m.nodes = append(m.nodes,
		node{level: maxLevel},
		node{level: maxLevel})
	m.live = 2
	return m
}

// NumVars returns the number of variables in the manager.
func (m *Manager) NumVars() int { return m.nvars }

// Size returns the total number of live nodes (including terminals).
func (m *Manager) Size() int { return m.live }

// AddVar appends a new variable (at the bottom of the order) and returns
// its index.
func (m *Manager) AddVar() int {
	m.var2level = append(m.var2level, int32(len(m.level2var)))
	m.level2var = append(m.level2var, int32(m.nvars))
	m.unique = append(m.unique, uniqueTable{})
	m.nvars++
	return m.nvars - 1
}

// Order returns the current variable order: element l is the index of the
// variable at level l (level 0 is the root).
func (m *Manager) Order() []int {
	out := make([]int, m.nvars)
	for l, v := range m.level2var {
		out[l] = int(v)
	}
	return out
}

// setOrder places variable level2var[l] at level l. It must run before
// the manager holds any internal node: existing nodes would keep their
// levels.
func (m *Manager) setOrder(level2var []int32) {
	copy(m.level2var, level2var)
	for l, v := range m.level2var {
		m.var2level[v] = int32(l)
	}
}

// Var returns the function of the single variable i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.nvars {
		panic(fmt.Sprintf("bdd: Var(%d) out of range [0,%d)", i, m.nvars))
	}
	r := m.mk(m.var2level[i], False, True)
	m.flush()
	return r
}

// NVar returns the complement of variable i.
func (m *Manager) NVar(i int) Ref {
	if i < 0 || i >= m.nvars {
		panic(fmt.Sprintf("bdd: NVar(%d) out of range [0,%d)", i, m.nvars))
	}
	r := m.mk(m.var2level[i], True, False)
	m.flush()
	return r
}

// mk finds or creates the node (level, lo, hi), applying the reduction
// rule lo==hi.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	if m.checked && m.err != nil {
		return False
	}
	tab := &m.unique[level]
	if r := m.lookup(tab, lo, hi); r != 0 {
		m.tally.uniqueHits++
		return r
	}
	m.tally.uniqueMisses++
	r := m.alloc(tab, level, lo, hi)
	if m.checked {
		m.checkNodes()
	}
	return r
}

// alloc interns a node known to be absent from tab, the unique table of
// its level, reusing the most recently freed slot first.
func (m *Manager) alloc(tab *uniqueTable, level int32, lo, hi Ref) Ref {
	r := m.free
	if r != 0 {
		m.free = m.nodes[r].next
		m.nodes[r] = node{level: level, lo: lo, hi: hi}
	} else {
		if len(m.nodes) == cap(m.nodes) {
			m.growArena()
		}
		r = Ref(len(m.nodes))
		m.nodes = append(m.nodes, node{level: level, lo: lo, hi: hi})
	}
	m.insert(tab, r)
	m.live++
	m.tally.peak = max(m.tally.peak, m.live)
	return r
}

// growArena doubles the arena's capacity. append alone would grow a
// large arena by about 1.25x a step, recopying it several times as often.
func (m *Manager) growArena() {
	grown := make([]node, len(m.nodes), 2*cap(m.nodes))
	copy(grown, m.nodes)
	m.nodes = grown
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// ITE computes if-then-else: f ? g : h. All Boolean connectives reduce to
// it.
func (m *Manager) ITE(f, g, h Ref) Ref {
	r := m.ite(f, g, h)
	m.flush()
	return r
}

func (m *Manager) ite(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	if m.checked && !m.checkStep() {
		return False
	}
	if r, ok := m.iteC.get(f, g, h); ok {
		m.tally.iteHits++
		return r
	}
	m.tally.iteMisses++
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	lo := m.ite(f0, g0, h0)
	hi := m.ite(f1, g1, h1)
	if m.checked && m.err != nil {
		// The budget tripped somewhere below: lo/hi are placeholder False
		// refs, so neither build a node from them nor poison the cache.
		return False
	}
	r := m.mk(top, lo, hi)
	m.iteC.put(f, g, h, r)
	return r
}

func (m *Manager) cofactors(f Ref, level int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// Not returns the complement of f.
func (m *Manager) Not(f Ref) Ref { return m.ITE(f, False, True) }

// And returns the conjunction of the arguments (True for none).
func (m *Manager) And(fs ...Ref) Ref {
	r := True
	for _, f := range fs {
		r = m.ITE(r, f, False)
		if r == False {
			return False
		}
	}
	return r
}

// Or returns the disjunction of the arguments (False for none).
func (m *Manager) Or(fs ...Ref) Ref {
	r := False
	for _, f := range fs {
		r = m.ITE(r, True, f)
		if r == True {
			return True
		}
	}
	return r
}

// Xor returns the exclusive-or of the arguments (False for none).
func (m *Manager) Xor(fs ...Ref) Ref {
	r := False
	for _, f := range fs {
		r = m.ITE(r, m.Not(f), f)
	}
	return r
}

// Xnor returns the complement of Xor.
func (m *Manager) Xnor(fs ...Ref) Ref { return m.Not(m.Xor(fs...)) }

// Implies returns f -> g.
func (m *Manager) Implies(f, g Ref) Ref { return m.ITE(f, g, True) }

// Restrict cofactors f with variable i fixed to val.
//
// Like ITE, the walk accounts recursion steps against the manager's
// budget and polls the context, so quantification built on Restrict
// (Exists, Forall, ExistsSet, ForallSet, Compose) is bounded too. On a
// poisoned manager it returns False immediately.
func (m *Manager) Restrict(f Ref, i int, val bool) Ref {
	if m.checked && m.err != nil {
		return False
	}
	m.begin()
	m.memo.ref = grown(m, m.memo.ref)
	r := m.restrict(f, m.var2level[i], val)
	m.flush()
	if m.checked && m.err != nil {
		return False
	}
	return r
}

func (m *Manager) restrict(g Ref, lvl int32, val bool) Ref {
	n := m.nodes[g]
	if n.level > lvl {
		return g
	}
	s := &m.memo
	if s.stamp[g] == s.gen {
		return s.ref[g]
	}
	if m.checked && !m.checkStep() {
		return False
	}
	var r Ref
	switch {
	case n.level < lvl:
		r = m.mk(n.level, m.restrict(n.lo, lvl, val), m.restrict(n.hi, lvl, val))
	case val:
		r = n.hi
	default:
		r = n.lo
	}
	s.stamp[g], s.ref[g] = s.gen, r
	return r
}

// Leq reports whether f implies g (f <= g pointwise) — equivalently,
// whether And(f, Not(g)) is False — by a joint walk that builds no nodes
// and stops at the first counterexample branch. Like Restrict, the walk
// accounts recursion steps against the manager's budget; on a poisoned
// manager it returns false.
func (m *Manager) Leq(f, g Ref) bool {
	if m.checked && m.err != nil {
		return false
	}
	m.memo.pairs.reset()
	return m.leq(f, g) && !(m.checked && m.err != nil)
}

func (m *Manager) leq(f, g Ref) bool {
	switch {
	case f == False || g == True || f == g:
		return true
	case f == True || g == False:
		return false
	}
	// Levels strictly increase down the walk, so a pair revisited while
	// the walk is still running was already proven.
	if !m.memo.pairs.add(f, g) {
		return true
	}
	if m.checked && !m.checkStep() {
		return false
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	return m.leq(f0, g0) && m.leq(f1, g1)
}

// Exists existentially quantifies out variable i: f[i=0] | f[i=1].
func (m *Manager) Exists(f Ref, i int) Ref {
	return m.Or(m.Restrict(f, i, false), m.Restrict(f, i, true))
}

// Forall universally quantifies out variable i: f[i=0] & f[i=1].
func (m *Manager) Forall(f Ref, i int) Ref {
	return m.And(m.Restrict(f, i, false), m.Restrict(f, i, true))
}

// ExistsSet quantifies out every variable whose index is in vars.
func (m *Manager) ExistsSet(f Ref, vars []int) Ref {
	for _, v := range vars {
		f = m.Exists(f, v)
	}
	return f
}

// ForallSet universally quantifies out every variable in vars.
func (m *Manager) ForallSet(f Ref, vars []int) Ref {
	for _, v := range vars {
		f = m.Forall(f, v)
	}
	return f
}

// Compose substitutes function g for variable i in f.
func (m *Manager) Compose(f Ref, i int, g Ref) Ref {
	// f[x_i <- g] = ITE(g, f[x_i=1], f[x_i=0])
	return m.ITE(g, m.Restrict(f, i, true), m.Restrict(f, i, false))
}

// Eval evaluates f under a complete variable assignment (indexed by
// variable, independent of the current order). On a poisoned manager it
// returns false.
func (m *Manager) Eval(f Ref, assign []bool) bool {
	if m.checked && m.err != nil {
		return false
	}
	for f != True && f != False {
		n := m.nodes[f]
		if assign[m.level2var[n.level]] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// Support returns the sorted indices of variables f depends on. On a
// poisoned manager it returns nil.
func (m *Manager) Support(f Ref) []int {
	if m.checked && m.err != nil {
		return nil
	}
	levels := make([]bool, m.nvars)
	m.begin()
	m.visit(f, func(n node) { levels[n.level] = true })
	out := []int{}
	for v := 0; v < m.nvars; v++ {
		if levels[m.var2level[v]] {
			out = append(out, v)
		}
	}
	return out
}

// visit calls fn once for every internal node reachable from g that the
// current walk (begun by the caller) has not stamped yet.
func (m *Manager) visit(g Ref, fn func(node)) {
	s := &m.memo
	for g > True && s.stamp[g] != s.gen {
		s.stamp[g] = s.gen
		n := m.nodes[g]
		fn(n)
		m.visit(n.lo, fn)
		g = n.hi
	}
}

// NodeCount returns the number of distinct internal nodes in f (a standard
// BDD size metric, excluding terminals). On a poisoned manager it returns
// zero.
func (m *Manager) NodeCount(f Ref) int {
	if m.checked && m.err != nil {
		return 0
	}
	count := 0
	m.begin()
	m.visit(f, func(node) { count++ })
	return count
}

// SatCount returns the number of satisfying assignments of f over all
// nvars variables, as a float64 (exact for < 2^53). The count is scaled
// in log space (math.Ldexp), so managers with >= 1024 variables still get
// finite counts whenever the true count fits in a float64; it saturates
// to +Inf only when the count itself exceeds the float64 range (and is 0,
// not NaN, for the constant-false function at any width).
func (m *Manager) SatCount(f Ref) float64 {
	return math.Ldexp(m.Probability(f, nil), m.nvars)
}

// Probability returns the probability that f evaluates to 1 when each
// variable i is independently 1 with probability p[i] (indexed by
// variable, independent of the current order). A nil p means every
// variable has probability 1/2. This is the exact signal probability used
// by internal/power. On a poisoned manager it returns 0.
func (m *Manager) Probability(f Ref, p []float64) float64 {
	if m.checked && m.err != nil {
		return 0
	}
	m.begin()
	m.memo.prob = grown(m, m.memo.prob)
	return m.probability(f, p)
}

// Probabilities returns Probability(f, p) for every f in roots, in one
// walk whose memo the roots share. Each node's value depends only on the
// node and p, so every result is bit-identical to its own Probability
// call. On a poisoned manager every result is 0.
func (m *Manager) Probabilities(roots []Ref, p []float64) []float64 {
	out := make([]float64, len(roots))
	if m.checked && m.err != nil {
		return out
	}
	m.begin()
	m.memo.prob = grown(m, m.memo.prob)
	for i, f := range roots {
		out[i] = m.probability(f, p)
	}
	return out
}

func (m *Manager) probability(g Ref, p []float64) float64 {
	switch g {
	case False:
		return 0
	case True:
		return 1
	}
	s := &m.memo
	if s.stamp[g] == s.gen {
		return s.prob[g]
	}
	n := m.nodes[g]
	pv := 0.5
	if p != nil {
		pv = p[m.level2var[n.level]]
	}
	v := pv*m.probability(n.hi, p) + (1-pv)*m.probability(n.lo, p)
	s.stamp[g], s.prob[g] = s.gen, v
	return v
}

// AnySat returns one satisfying assignment of f (indexed by variable), or
// nil if f is unsatisfiable. Variables not in the support are set false.
// On a poisoned manager it returns nil.
func (m *Manager) AnySat(f Ref) []bool {
	if f == False {
		return nil
	}
	if m.checked && m.err != nil {
		return nil
	}
	assign := make([]bool, m.nvars)
	for f != True {
		n := m.nodes[f]
		if n.hi != False {
			assign[m.level2var[n.level]] = true
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return assign
}

// Low and High expose the cofactors and level of an internal node, for
// algorithms that walk the graph directly. They panic on terminals.
func (m *Manager) Low(f Ref) Ref {
	m.checkInternal(f)
	return m.nodes[f].lo
}

// High returns the positive cofactor edge of an internal node.
func (m *Manager) High(f Ref) Ref {
	m.checkInternal(f)
	return m.nodes[f].hi
}

// Level returns the variable index tested at the root of f.
func (m *Manager) Level(f Ref) int {
	m.checkInternal(f)
	return int(m.level2var[m.nodes[f].level])
}

func (m *Manager) checkInternal(f Ref) {
	if f == True || f == False {
		panic("bdd: cofactor access on terminal node")
	}
}
