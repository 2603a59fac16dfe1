package sop

import (
	"math/rand"
	"testing"
)

// minimizeBoth runs the minimization loop over both set oracles of f and
// dc and fails unless they return the same cube list, in the same order.
func minimizeBoth(t *testing.T, f, dc *Cover) *Cover {
	t.Helper()
	var got [2]*Cover
	for i, o := range []oracle{newTableOracle(support(f.NumVars, f, dc), f, dc), newCubeOracle(f, dc)} {
		got[i] = minimize(f, o)
	}
	if got[0].NumVars != got[1].NumVars || got[0].String() != got[1].String() {
		t.Fatalf("oracles disagree on f =\n%s\ndc =\n%s\ntable:\n%s\ncube:\n%s", f, dc, got[0], got[1])
	}
	return got[0]
}

// checkMinimized fails unless min agrees with f on every minterm outside
// dc.
func checkMinimized(t *testing.T, f, dc, min *Cover) {
	t.Helper()
	ft, err := f.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	dt, _ := dc.TruthTable()
	mt, _ := min.TruthTable()
	for w := range ft {
		if (ft[w]^mt[w])&^dt[w] != 0 {
			t.Fatalf("minimized cover changes the function outside dc:\nf =\n%s\ndc =\n%s\nmin =\n%s", f, dc, min)
		}
	}
}

// coverOf reads cubes of n literals from data, at most max of them, and
// returns them with the bytes left over.
func coverOf(n, max int, data []byte) (*Cover, []byte) {
	cv := NewCover(n)
	for len(cv.Cubes) < max && len(data) >= n && len(data) > 0 {
		c := make(Cube, n)
		for j := range c {
			c[j] = Lit(data[j] % 3)
		}
		cv.Cubes = append(cv.Cubes, c)
		data = data[n:]
	}
	return cv, data
}

// mintermCovers returns the dontcare pass's shape over k variables: one
// minterm cube per pattern byte of on, in byte order, and likewise for
// dc.
func mintermCovers(k int, on, dc []byte) (*Cover, *Cover) {
	covers := [2]*Cover{NewCover(k), NewCover(k)}
	for i, pats := range [2][]byte{on, dc} {
		for _, p := range pats {
			c := make(Cube, k)
			for j := range c {
				c[j] = Lit(p >> j & 1)
			}
			covers[i].Cubes = append(covers[i].Cubes, c)
		}
	}
	return covers[0], covers[1]
}

// FuzzMinimizeOraclesAgree runs the minimization loop over the truth-table
// and the cube-list oracle and requires identical cube lists: on covers of
// 0–16 variables, with and without don't-cares, and on the dontcare pass's
// minterm covers over 8 fanins.
func FuzzMinimizeOraclesAgree(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(0), uint8(1), []byte{})
	f.Add(uint8(3), uint8(0), []byte{0, 1, 2, 1, 1, 0, 2, 2, 1})
	f.Add(uint8(3), uint8(1), []byte{0, 1, 2, 1, 1, 0, 2, 2, 1, 0, 0, 0})
	f.Add(uint8(7), uint8(1), []byte("espresso-expand-irredundant-reduce"))
	f.Add(uint8(16), uint8(1), []byte("a sixteen-variable cover with a don't-care set"))
	f.Add(uint8(8), uint8(2), []byte{0, 3, 5, 6, 9, 10, 12, 15, 255, 1, 2, 4, 8})
	f.Fuzz(func(t *testing.T, nvars, mode uint8, data []byte) {
		var fc, dc *Cover
		switch mode % 3 {
		case 0, 1: // a random cover over 0–16 variables; mode 1 adds don't-cares
			n := int(nvars % (MaxTableVars + 1))
			if n == 0 {
				// Zero variables: each of f and dc is empty or the one
				// empty cube.
				fc, dc = NewCover(0), NewCover(0)
				if nvars&32 != 0 {
					fc = Universe(0)
				}
				if mode%3 == 1 && nvars&64 != 0 {
					dc = Universe(0)
				}
				break
			}
			var rest []byte
			fc, rest = coverOf(n, 8, data)
			dc = NewCover(n)
			if mode%3 == 1 {
				dc, _ = coverOf(n, 4, rest)
			}
		default: // minterm cubes over 8 fanins, split at nvars
			cut := int(nvars) % (len(data) + 1)
			fc, dc = mintermCovers(8, data[:cut], data[cut:])
		}
		checkMinimized(t, fc, dc, minimizeBoth(t, fc, dc))
	})
}

// TestMinimizeOraclesAgree is the fuzz target's property on a fixed
// random sample: 0–16 variables with and without don't-cares, and the
// minterm shape at 8 fanins.
func TestMinimizeOraclesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	randomLits := func(n, max int) *Cover {
		data := make([]byte, n*(1+r.Intn(max)))
		r.Read(data)
		cv, _ := coverOf(n, max, data)
		return cv
	}
	for trial := 0; trial < 600; trial++ {
		n := trial % (MaxTableVars + 1)
		if n == 0 {
			covers := []*Cover{NewCover(0), Universe(0)}
			fc, dc := covers[trial/17%2], covers[trial/34%2]
			checkMinimized(t, fc, dc, minimizeBoth(t, fc, dc))
			continue
		}
		fc, dc := randomLits(n, 8), NewCover(n)
		if trial%2 == 1 {
			dc = randomLits(n, 4)
		}
		checkMinimized(t, fc, dc, minimizeBoth(t, fc, dc))
	}
	for trial := 0; trial < 100; trial++ {
		pats := make([]byte, 1+r.Intn(64))
		r.Read(pats)
		fc, dc := mintermCovers(8, pats[:len(pats)/2], pats[len(pats)/2:])
		checkMinimized(t, fc, dc, minimizeBoth(t, fc, dc))
	}
}

// TestMinimizeZeroVariables pins the constants over zero variables: the
// one-empty-cube cover is constant true and minimizes to itself.
func TestMinimizeZeroVariables(t *testing.T) {
	for _, c := range []struct {
		f, dc *Cover
		cubes int
	}{
		{Universe(0), NewCover(0), 1},
		{NewCover(0), NewCover(0), 0},
		{NewCover(0), Universe(0), 0},
		// Don't-care everywhere: the empty cover suffices.
		{Universe(0), Universe(0), 0},
	} {
		min, err := Minimize(c.f, MinimizeOptions{DontCare: c.dc})
		if err != nil {
			t.Fatal(err)
		}
		if len(min.Cubes) != c.cubes {
			t.Errorf("Minimize(%d cubes, dc %d cubes) = %d cubes, want %d", len(c.f.Cubes), len(c.dc.Cubes), len(min.Cubes), c.cubes)
		}
		if got := minimizeBoth(t, c.f, c.dc); len(got.Cubes) != c.cubes {
			t.Errorf("oracle loop = %d cubes, want %d", len(got.Cubes), c.cubes)
		}
	}
}

// TestMinimizeWideSupportTakesCubeOracle checks the oracle split: a cover
// with 20 variables in its support takes the cube-list oracle, and a
// 40-variable cover whose support has 12 takes the truth-table oracle and
// returns what the cube-list oracle does.
func TestMinimizeWideSupportTakesCubeOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	wide := NewCover(20)
	for i := 0; i < 6; i++ {
		c := NewCube(20)
		for v := range c {
			if r.Intn(3) == 0 {
				c[v] = Lit(r.Intn(2))
			}
		}
		wide.Cubes = append(wide.Cubes, c)
	}
	for v := 0; v < 20; v++ {
		wide.Cubes[v%6][v] = Lit(v % 2)
	}
	if vars := support(20, wide); len(vars) <= MaxTableVars {
		t.Fatalf("support has %d variables, want more than %d", len(vars), MaxTableVars)
	}
	if _, ok := newOracle(wide, NewCover(20)).(*cubeOracle); !ok {
		t.Fatal("a 20-variable support did not take the cube-list oracle")
	}
	min, err := Minimize(wide, MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !min.Equivalent(wide) {
		t.Fatalf("wide minimization changed the function:\n%s\n->\n%s", wide, min)
	}

	// 40 variables, literals only on every third one from 3 to 36.
	narrow, dc := NewCover(40), NewCover(40)
	for i := 0; i < 10; i++ {
		c := NewCube(40)
		for v := 3; v < 40; v += 3 {
			if r.Intn(2) == 0 {
				c[v] = Lit(r.Intn(2))
			}
		}
		if i < 7 {
			narrow.Cubes = append(narrow.Cubes, c)
		} else {
			dc.Cubes = append(dc.Cubes, c)
		}
	}
	if vars := support(40, narrow, dc); len(vars) > MaxTableVars {
		t.Fatalf("support has %d variables, want at most %d", len(vars), MaxTableVars)
	}
	if _, ok := newOracle(narrow, dc).(*tableOracle); !ok {
		t.Fatal("a 40-variable cover with a 12-variable support did not take the truth-table oracle")
	}
	got, err := Minimize(narrow, MinimizeOptions{DontCare: dc})
	if err != nil {
		t.Fatal(err)
	}
	if want := minimize(narrow, newCubeOracle(narrow, dc)); got.String() != want.String() {
		t.Fatalf("narrow support: table oracle\n%s\ncube oracle\n%s", got, want)
	}
}

// TestTruthTable pins the table layout: bit m%64 of word m/64 is minterm
// m, variable j is bit j of m, and covers wider than MaxTableVars are
// refused.
func TestTruthTable(t *testing.T) {
	cv := mustCover(t, 7, "1-----0", "0000001")
	tt, err := cv.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tt) != 2 {
		t.Fatalf("7 variables give %d words, want 2", len(tt))
	}
	m := make([]bool, 7)
	for idx := 0; idx < 128; idx++ {
		for j := range m {
			m[j] = idx>>j&1 != 0
		}
		if got := tt[idx>>6]>>(idx&63)&1 != 0; got != cv.Eval(m) || tt.Has(idx) != got {
			t.Errorf("minterm %d: table %v, cover %v", idx, got, cv.Eval(m))
		}
	}
	if tt, err := Universe(0).TruthTable(); err != nil || len(tt) != 1 || tt[0] != 1 {
		t.Errorf("Universe(0) table = %v, %v; want [1]", tt, err)
	}
	if _, err := NewCover(MaxTableVars + 1).TruthTable(); err == nil {
		t.Error("a 17-variable cover should be refused")
	}
}
