package sop

import (
	"math/rand"
	"testing"
)

func TestMinimizeClassic(t *testing.T) {
	// f = a'b' + a'b + ab = a' + b; minimal cover has 2 literals.
	f := mustCover(t, 2, "00", "01", "11")
	min, err := Minimize(f, MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !min.Equivalent(f) {
		t.Fatal("minimization changed function")
	}
	if got := min.NumLiterals(); got != 2 {
		t.Errorf("literals = %d, want 2 (cover: %v)", got, min.Cubes)
	}
}

func TestMinimizeWithDontCares(t *testing.T) {
	// 7-segment style: f on {1,3}, dc on {5,7} over 3 vars -> f = x0 (bit0
	// set in all of them).
	f := mustCover(t, 3, "100", "110")
	dc := mustCover(t, 3, "101", "111")
	min, err := Minimize(f, MinimizeOptions{DontCare: dc})
	if err != nil {
		t.Fatal(err)
	}
	if got := min.NumLiterals(); got != 1 {
		t.Errorf("literals = %d, want 1 (cover: %v)", got, min.Cubes)
	}
	// Must agree with f outside the DC set.
	m := make([]bool, 3)
	for idx := 0; idx < 8; idx++ {
		for i := range m {
			m[i] = idx&(1<<i) != 0
		}
		if dc.Eval(m) {
			continue
		}
		if min.Eval(m) != f.Eval(m) {
			t.Errorf("minterm %d changed", idx)
		}
	}
}

func TestMinimizeDCArityError(t *testing.T) {
	f := mustCover(t, 2, "11")
	if _, err := Minimize(f, MinimizeOptions{DontCare: NewCover(3)}); err == nil {
		t.Error("DC arity mismatch should fail")
	}
}

func TestMinimizeRandomPreservesFunction(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(3)
		f := randomCover(r, n, 2+r.Intn(6))
		min, err := Minimize(f, MinimizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !min.Equivalent(f) {
			t.Fatalf("trial %d: function changed\nf:\n%s\nmin:\n%s", trial, f, min)
		}
		if min.NumLiterals() > f.SingleCubeContainment().NumLiterals() {
			t.Errorf("trial %d: minimization increased literals", trial)
		}
	}
}

// oracles returns both set oracles of f with don't-care set dc (empty
// when nil), by name.
func oracles(f, dc *Cover) map[string]oracle {
	if dc == nil {
		dc = NewCover(f.NumVars)
	}
	return map[string]oracle{
		"table": newTableOracle(support(f.NumVars, f, dc), f, dc),
		"cube":  newCubeOracle(f, dc),
	}
}

func TestExpandMakesPrimes(t *testing.T) {
	f := mustCover(t, 3, "110", "111")
	for name, o := range oracles(f, nil) {
		e := expand(f, o)
		// The two cubes merge to 11-.
		if len(e.Cubes) != 1 || e.Cubes[0].String() != "11-" {
			t.Errorf("%s: expand result = %v", name, e.Cubes)
		}
	}
}

func TestIrredundantDropsRedundant(t *testing.T) {
	f := mustCover(t, 2, "1-", "-1", "11") // 11 is redundant
	for name, o := range oracles(f, nil) {
		out := irredundant(f, o)
		if len(out.Cubes) != 2 {
			t.Errorf("%s: irredundant left %d cubes: %v", name, len(out.Cubes), out.Cubes)
		}
		if !out.Equivalent(f) {
			t.Errorf("%s: function changed", name)
		}
	}
}

func TestReduceShrinksOverlap(t *testing.T) {
	// f = 1- + -1: reduce of 1- against -1 shrinks it to 10 (its unique
	// part); -1 is then reduced against 10 and stays -1.
	f := mustCover(t, 2, "1-", "-1")
	for name, o := range oracles(f, nil) {
		out := reduce(f, o)
		if !out.Equivalent(f) {
			// Reduce alone may shrink covers only if still covering; in this
			// overlapping case the union must be preserved.
			t.Errorf("%s: reduce changed function: %v", name, out.Cubes)
		}
		if got := out.String(); got != "10\n-1" {
			t.Errorf("%s: reduce = %q, want 10 and -1", name, got)
		}
	}
}

func TestMinimizeEmptyAndUniverse(t *testing.T) {
	e := NewCover(3)
	min, err := Minimize(e, MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !min.IsEmpty() {
		t.Error("empty cover should stay empty")
	}
	u := Universe(3)
	min, err = Minimize(u, MinimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Cubes) != 1 || min.Cubes[0].NumLiterals() != 0 {
		t.Errorf("universe should minimize to all-dash: %v", min.Cubes)
	}
}
