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

func TestExpandMakesPrimes(t *testing.T) {
	f := mustCover(t, 3, "110", "111")
	off := f.Complement()
	e := Expand(f, off)
	// The two cubes merge to 11-.
	if len(e.Cubes) != 1 || e.Cubes[0].String() != "11-" {
		t.Errorf("expand result = %v", e.Cubes)
	}
}

func TestIrredundantDropsRedundant(t *testing.T) {
	f := mustCover(t, 2, "1-", "-1", "11") // 11 is redundant
	out := Irredundant(f, nil)
	if len(out.Cubes) != 2 {
		t.Errorf("irredundant left %d cubes: %v", len(out.Cubes), out.Cubes)
	}
	if !out.Equivalent(f) {
		t.Error("function changed")
	}
}

func TestReduceShrinksOverlap(t *testing.T) {
	// f = 1- + -1: reduce of -1 against 1- should shrink it to 01 (its
	// unique part), keeping the function covered jointly.
	f := mustCover(t, 2, "1-", "-1")
	out := Reduce(f, nil)
	if !out.Equivalent(f) {
		// Reduce alone may shrink covers only if still covering; in this
		// overlapping case the union must be preserved.
		t.Errorf("reduce changed function: %v", out.Cubes)
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
