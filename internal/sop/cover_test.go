package sop

import (
	"math/rand"
	"testing"
)

func mustCover(t *testing.T, n int, rows ...string) *Cover {
	t.Helper()
	cv, err := ParseCover(n, rows...)
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

func TestCubeBasics(t *testing.T) {
	c, err := ParseCube("1-0")
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != "1-0" {
		t.Errorf("round trip: %s", c.String())
	}
	if c.NumLiterals() != 2 {
		t.Errorf("literals = %d", c.NumLiterals())
	}
	if _, err := ParseCube("1x0"); err == nil {
		t.Error("bad character should fail")
	}
	d, _ := ParseCube("110")
	if !c.Contains(d) {
		t.Error("1-0 should contain 110")
	}
	if d.Contains(c) {
		t.Error("110 should not contain 1-0")
	}
	if !c.ContainsMinterm([]bool{true, false, false}) {
		t.Error("1-0 covers 100")
	}
	if c.ContainsMinterm([]bool{true, false, true}) {
		t.Error("1-0 does not cover 101")
	}
}

func TestCubeIntersectDistance(t *testing.T) {
	a, _ := ParseCube("1-0")
	b, _ := ParseCube("-10")
	x, ok := a.Intersect(b)
	if !ok || x.String() != "110" {
		t.Errorf("intersect = %v %v", x, ok)
	}
	c, _ := ParseCube("0--")
	if _, ok := a.Intersect(c); ok {
		t.Error("1-0 and 0-- are disjoint")
	}
	if a.Distance(c) != 1 {
		t.Errorf("distance = %d", a.Distance(c))
	}
	d, _ := ParseCube("011")
	if a.Distance(d) != 2 {
		t.Errorf("distance = %d", a.Distance(d))
	}
	if s := a.Supercube(b); s.String() != "--0" {
		t.Errorf("supercube = %s", s)
	}
}

func TestCubeCofactor(t *testing.T) {
	c, _ := ParseCube("1-0")
	if cc, ok := c.Cofactor(0, One); !ok || cc.String() != "--0" {
		t.Errorf("cofactor = %v %v", cc, ok)
	}
	if _, ok := c.Cofactor(0, Zero); ok {
		t.Error("cofactor against opposing literal should vanish")
	}
	if cc, ok := c.Cofactor(1, One); !ok || cc.String() != "1-0" {
		t.Errorf("dash cofactor = %v %v", cc, ok)
	}
}

func TestTautology(t *testing.T) {
	cases := []struct {
		n    int
		rows []string
		want bool
	}{
		{1, []string{"0", "1"}, true},
		{1, []string{"1"}, false},
		{2, []string{"1-", "0-"}, true},
		{2, []string{"1-", "01"}, false},
		{2, []string{"--"}, true},
		{3, []string{"1--", "01-", "001", "000"}, true},
		{3, []string{"11-", "1-1", "-11", "00-", "0-0", "-00"}, true}, // majority + minority
		{2, []string{}, false},
		// Over zero variables the empty cover is still constant false.
		{0, []string{}, false},
		{0, []string{""}, true},
	}
	for i, c := range cases {
		cv := mustCover(t, c.n, c.rows...)
		if got := cv.Tautology(); got != c.want {
			t.Errorf("case %d: tautology = %v, want %v", i, got, c.want)
		}
	}
}

func TestComplement(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(3)
		cv := randomCover(r, n, 1+r.Intn(5))
		comp := cv.Complement()
		// f | !f = 1, f & !f = 0 — verified pointwise.
		m := make([]bool, n)
		for idx := 0; idx < 1<<n; idx++ {
			for i := range m {
				m[i] = idx&(1<<i) != 0
			}
			f, g := cv.Eval(m), comp.Eval(m)
			if f == g {
				t.Fatalf("trial %d minterm %d: f=%v comp=%v", trial, idx, f, g)
			}
		}
	}
}

func randomCover(r *rand.Rand, n, k int) *Cover {
	cv := NewCover(n)
	for i := 0; i < k; i++ {
		c := make(Cube, n)
		for j := range c {
			c[j] = Lit(r.Intn(3))
		}
		cv.Cubes = append(cv.Cubes, c)
	}
	return cv
}

func TestCoversAndEquivalent(t *testing.T) {
	f := mustCover(t, 2, "11", "10")
	g := mustCover(t, 2, "1-")
	if !g.Covers(f) || !f.Covers(g) {
		t.Error("1- and {11,10} should cover each other")
	}
	if !f.Equivalent(g) {
		t.Error("should be equivalent")
	}
	h := mustCover(t, 2, "11")
	if !g.Covers(h) {
		t.Error("1- covers 11")
	}
	if h.Covers(g) {
		t.Error("11 does not cover 1-")
	}
}

func TestSingleCubeContainment(t *testing.T) {
	cv := mustCover(t, 3, "110", "1-0", "111", "1--")
	out := cv.SingleCubeContainment()
	if len(out.Cubes) != 1 || out.Cubes[0].String() != "1--" {
		t.Errorf("SCC left %v", out.Cubes)
	}
	// Largest first, cover order among equal sizes: Minimize's output
	// depends on this order.
	cv = mustCover(t, 3, "11-", "0-0", "--1", "111", "-0-")
	if got := cv.SingleCubeContainment().String(); got != "--1\n-0-\n11-\n0-0" {
		t.Errorf("SCC order = %q", got)
	}
}

func TestIntersectCovers(t *testing.T) {
	f := mustCover(t, 2, "1-")
	g := mustCover(t, 2, "-1")
	x := f.Intersect(g)
	if len(x.Cubes) != 1 || x.Cubes[0].String() != "11" {
		t.Errorf("intersection = %v", x.Cubes)
	}
}

func TestCofactorCube(t *testing.T) {
	f := mustCover(t, 3, "11-", "0-1", "10-")
	c, _ := ParseCube("1--")
	cf := f.CofactorCube(c)
	// Cubes intersecting 1--: 11-, 10- -> with var0 raised.
	if len(cf.Cubes) != 2 {
		t.Fatalf("cofactor has %d cubes", len(cf.Cubes))
	}
	for _, k := range cf.Cubes {
		if k[0] != Dash {
			t.Error("cofactored variable should be dash")
		}
	}
}

func TestParseCoverErrors(t *testing.T) {
	if _, err := ParseCover(2, "1"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := ParseCover(2, "1z"); err == nil {
		t.Error("bad char should fail")
	}
}
