package bdd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstantsAndVars(t *testing.T) {
	m := New(3)
	if m.Eval(True, []bool{false, false, false}) != true {
		t.Error("True should evaluate to true")
	}
	if m.Eval(False, []bool{true, true, true}) != false {
		t.Error("False should evaluate to false")
	}
	x := m.Var(1)
	if !m.Eval(x, []bool{false, true, false}) || m.Eval(x, []bool{true, false, true}) {
		t.Error("Var(1) should mirror assignment[1]")
	}
	nx := m.NVar(1)
	if m.Eval(nx, []bool{false, true, false}) {
		t.Error("NVar(1) should be complement of Var(1)")
	}
	if m.Not(x) != nx {
		t.Error("Not(Var) should be canonical with NVar")
	}
}

func TestVarOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Var out of range should panic")
		}
	}()
	New(2).Var(5)
}

// exhaustEq checks f against a reference function over all assignments.
func exhaustEq(t *testing.T, m *Manager, f Ref, want func([]bool) bool) {
	t.Helper()
	n := m.NumVars()
	for mt := 0; mt < 1<<n; mt++ {
		a := make([]bool, n)
		for i := range a {
			a[i] = mt&(1<<i) != 0
		}
		if got := m.Eval(f, a); got != want(a) {
			t.Fatalf("assignment %v: got %v want %v", a, got, want(a))
		}
	}
}

func TestConnectives(t *testing.T) {
	m := New(4)
	v := []Ref{m.Var(0), m.Var(1), m.Var(2), m.Var(3)}
	exhaustEq(t, m, m.And(v[0], v[1], v[2]), func(a []bool) bool { return a[0] && a[1] && a[2] })
	exhaustEq(t, m, m.Or(v[1], v[3]), func(a []bool) bool { return a[1] || a[3] })
	exhaustEq(t, m, m.Xor(v[0], v[1], v[2], v[3]), func(a []bool) bool {
		return (a[0] != a[1]) != (a[2] != a[3])
	})
	exhaustEq(t, m, m.Xnor(v[0], v[2]), func(a []bool) bool { return a[0] == a[2] })
	exhaustEq(t, m, m.Implies(v[0], v[1]), func(a []bool) bool { return !a[0] || a[1] })
	exhaustEq(t, m, m.ITE(v[0], v[1], v[2]), func(a []bool) bool {
		if a[0] {
			return a[1]
		}
		return a[2]
	})
	if m.And() != True || m.Or() != False || m.Xor() != False {
		t.Error("empty connectives should be identities")
	}
}

func TestCanonicity(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	// (a&b)|c in two different orders must be the same node.
	f1 := m.Or(m.And(a, b), c)
	f2 := m.Or(c, m.And(b, a))
	if f1 != f2 {
		t.Error("equal functions must share a canonical node")
	}
	// De Morgan.
	if m.Not(m.And(a, b)) != m.Or(m.Not(a), m.Not(b)) {
		t.Error("De Morgan violated")
	}
	// x & !x = 0, x | !x = 1.
	if m.And(a, m.Not(a)) != False || m.Or(a, m.Not(a)) != True {
		t.Error("complement laws violated")
	}
}

func TestRestrictQuantify(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Or(m.And(a, b), m.And(m.Not(a), c))
	if got := m.Restrict(f, 0, true); got != b {
		t.Error("f[a=1] should be b")
	}
	if got := m.Restrict(f, 0, false); got != c {
		t.Error("f[a=0] should be c")
	}
	if got := m.Exists(f, 0); got != m.Or(b, c) {
		t.Error("exists a.f should be b|c")
	}
	if got := m.Forall(f, 0); got != m.And(b, c) {
		t.Error("forall a.f should be b&c")
	}
	// Quantifying a variable not in the support is the identity.
	g := m.And(a, b)
	if m.Exists(g, 2) != g || m.Forall(g, 2) != g {
		t.Error("quantification over free variable should be identity")
	}
	if m.ExistsSet(f, []int{0, 1, 2}) != True {
		t.Error("fully quantified satisfiable function should be True")
	}
	if m.ForallSet(f, []int{0, 1, 2}) != False {
		t.Error("fully forall-quantified non-tautology should be False")
	}
}

func TestCompose(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	f := m.Xor(a, b)
	// b <- (a & c):  f becomes a xor (a&c)
	g := m.Compose(f, 1, m.And(a, c))
	exhaustEq(t, m, g, func(as []bool) bool { return as[0] != (as[0] && as[2]) })
}

func TestSupportAndNodeCount(t *testing.T) {
	m := New(4)
	f := m.Or(m.And(m.Var(0), m.Var(2)), m.Var(3))
	sup := m.Support(f)
	want := []int{0, 2, 3}
	if len(sup) != len(want) {
		t.Fatalf("support = %v, want %v", sup, want)
	}
	for i := range want {
		if sup[i] != want[i] {
			t.Fatalf("support = %v, want %v", sup, want)
		}
	}
	if m.NodeCount(True) != 0 {
		t.Error("terminals have node count 0")
	}
	if m.NodeCount(m.Var(0)) != 1 {
		t.Error("single variable has node count 1")
	}
}

func TestSatCountProbability(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, b) // 2 of 8 minterms
	if got := m.SatCount(f); math.Abs(got-2) > 1e-9 {
		t.Errorf("SatCount = %v, want 2", got)
	}
	if got := m.Probability(f, nil); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Probability = %v, want 0.25", got)
	}
	p := []float64{0.9, 0.5, 0.1}
	if got := m.Probability(f, p); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("biased Probability = %v, want 0.45", got)
	}
	if m.Probability(True, p) != 1 || m.Probability(False, p) != 0 {
		t.Error("terminal probabilities wrong")
	}
}

func TestAnySat(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(1), m.Not(m.Var(3)))
	a := m.AnySat(f)
	if a == nil || !m.Eval(f, a) {
		t.Errorf("AnySat returned non-witness %v", a)
	}
	if m.AnySat(False) != nil {
		t.Error("AnySat(False) should be nil")
	}
}

// Property test: random 3-level expressions over 6 variables match a direct
// evaluator on random assignments.
func TestRandomExpressionsProperty(t *testing.T) {
	const nv = 6
	type expr struct {
		op       int // 0..4: and, or, xor, not, var
		a, b     *expr
		varIndex int
	}
	var build func(r *rand.Rand, depth int) *expr
	build = func(r *rand.Rand, depth int) *expr {
		if depth == 0 || r.Intn(4) == 0 {
			return &expr{op: 4, varIndex: r.Intn(nv)}
		}
		op := r.Intn(4)
		e := &expr{op: op}
		e.a = build(r, depth-1)
		if op != 3 {
			e.b = build(r, depth-1)
		}
		return e
	}
	var toBDD func(m *Manager, e *expr) Ref
	toBDD = func(m *Manager, e *expr) Ref {
		switch e.op {
		case 0:
			return m.And(toBDD(m, e.a), toBDD(m, e.b))
		case 1:
			return m.Or(toBDD(m, e.a), toBDD(m, e.b))
		case 2:
			return m.Xor(toBDD(m, e.a), toBDD(m, e.b))
		case 3:
			return m.Not(toBDD(m, e.a))
		default:
			return m.Var(e.varIndex)
		}
	}
	var evalE func(e *expr, a []bool) bool
	evalE = func(e *expr, a []bool) bool {
		switch e.op {
		case 0:
			return evalE(e.a, a) && evalE(e.b, a)
		case 1:
			return evalE(e.a, a) || evalE(e.b, a)
		case 2:
			return evalE(e.a, a) != evalE(e.b, a)
		case 3:
			return !evalE(e.a, a)
		default:
			return a[e.varIndex]
		}
	}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := New(nv)
		e := build(r, 4)
		f := toBDD(m, e)
		for k := 0; k < 64; k++ {
			a := make([]bool, nv)
			for i := range a {
				a[i] = r.Intn(2) == 1
			}
			if m.Eval(f, a) != evalE(e, a) {
				t.Fatalf("trial %d: BDD disagrees with evaluator on %v", trial, a)
			}
		}
	}
}

// Property: Shannon expansion f = ITE(x, f|x=1, f|x=0) holds for random
// functions built from quick-generated truth assignments.
func TestShannonExpansionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := New(5)
		g := randomFn(m, r)
		v := r.Intn(5)
		lhs := m.ITE(m.Var(v), m.Restrict(g, v, true), m.Restrict(g, v, false))
		return lhs == g
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomFn(m *Manager, r *rand.Rand) Ref {
	g := False
	for i := 0; i < 6; i++ {
		term := True
		for v := 0; v < m.NumVars(); v++ {
			switch r.Intn(3) {
			case 0:
				term = m.And(term, m.Var(v))
			case 1:
				term = m.And(term, m.Not(m.Var(v)))
			}
		}
		g = m.Or(g, term)
	}
	return g
}

func TestAddVar(t *testing.T) {
	m := New(1)
	i := m.AddVar()
	if i != 1 || m.NumVars() != 2 {
		t.Fatalf("AddVar gave %d, NumVars %d", i, m.NumVars())
	}
	f := m.And(m.Var(0), m.Var(1))
	if m.Probability(f, nil) != 0.25 {
		t.Error("function over added variable misbehaves")
	}
}

func TestCofactorAccessors(t *testing.T) {
	m := New(2)
	f := m.And(m.Var(0), m.Var(1))
	if m.Level(f) != 0 {
		t.Errorf("root level = %d, want 0", m.Level(f))
	}
	if m.Low(f) != False {
		t.Error("low cofactor of a&b at a should be False")
	}
	if m.High(f) != m.Var(1) {
		t.Error("high cofactor of a&b at a should be b")
	}
	defer func() {
		if recover() == nil {
			t.Error("cofactor access on terminal should panic")
		}
	}()
	m.Low(True)
}

// Property: Leq(f, g) holds exactly when f AND NOT g is False, for random
// functions and for pairs where the implication holds by construction.
func TestLeqMatchesAnd(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		m := New(5)
		f, g := randomFn(m, r), randomFn(m, r)
		if trial%2 == 1 {
			f = m.And(f, g) // f <= g by construction
		}
		want := m.And(f, m.Not(g)) == False
		if got := m.Leq(f, g); got != want {
			t.Fatalf("trial %d: Leq = %v, And(f, Not g) == False is %v", trial, got, want)
		}
	}
	m := New(2)
	x := m.Var(0)
	for _, c := range []struct {
		f, g Ref
		want bool
	}{{False, x, true}, {x, True, true}, {x, x, true}, {True, x, false}, {x, False, false}, {x, m.Var(1), false}} {
		if got := m.Leq(c.f, c.g); got != c.want {
			t.Errorf("Leq(%d, %d) = %v, want %v", c.f, c.g, got, c.want)
		}
	}
}

// TestArenaGrowsByDoubling builds an equality of two 10-bit words with
// every a_i above every b_i (thousands of nodes) and checks the arena's
// growth policy after every operation: the capacity stays a power of two
// (the two terminals' slots, doubled) and never exceeds twice the slots
// in use.
func TestArenaGrowsByDoubling(t *testing.T) {
	const n = 10
	m := New(2 * n)
	eq := True
	for i := 0; i < n; i++ {
		eq = m.And(eq, m.Xnor(m.Var(i), m.Var(n+i)))
		if c, l := cap(m.nodes), len(m.nodes); c&(c-1) != 0 || c > 2*l {
			t.Fatalf("arena capacity %d for %d slots: want a power of two at most twice the slots", c, l)
		}
	}
	if m.Size() < 2000 {
		t.Fatalf("built %d nodes; the test needs a large arena", m.Size())
	}
}
