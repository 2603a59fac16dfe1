package logic_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// steppedRow evaluates one minterm the slow way, through State.Step.
func steppedRow(t *testing.T, st *logic.State, n, m int) []bool {
	t.Helper()
	in := make([]bool, n)
	for j := range in {
		in[j] = m>>j&1 == 1
	}
	out, err := st.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkTruthTable compares every row of the word-parallel truth table (or
// a sample of rows when there are more than 2^14) against State.Step, and
// checks that no bit past the last row is set.
func checkTruthTable(t *testing.T, nw *logic.Network, r *rand.Rand) {
	t.Helper()
	tt, err := nw.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	n := len(nw.PIs())
	rows := 1 << n
	if len(tt) != len(nw.POs()) {
		t.Fatalf("%d tables for %d outputs", len(tt), len(nw.POs()))
	}
	st := logic.NewState(nw)
	check := func(m int) {
		for i, v := range steppedRow(t, st, n, m) {
			if got := tt[i][m/64]>>(m%64)&1 == 1; got != v {
				t.Fatalf("%s: output %d row %d = %v, stepped %v", nw.Name, i, m, got, v)
			}
		}
	}
	if rows <= 1<<14 {
		for m := 0; m < rows; m++ {
			check(m)
		}
	} else {
		for s := 0; s < 4096; s++ {
			check(r.Intn(rows))
		}
		check(0)
		check(rows - 1)
	}
	for i := range tt {
		if want := (rows + 63) / 64; len(tt[i]) != want {
			t.Fatalf("output %d has %d words, want %d", i, len(tt[i]), want)
		}
		if rows < 64 && tt[i][0]>>uint(rows) != 0 {
			t.Fatalf("%s: output %d sets bits past row %d: %#x", nw.Name, i, rows, tt[i][0])
		}
	}
}

// TestTruthTableMatchesStepGenerators checks every named generator with at
// most 16 inputs.
func TestTruthTableMatchesStepGenerators(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, name := range circuits.GeneratorNames() {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(nw.PIs()) > 16 || len(nw.FFs()) != 0 {
			continue
		}
		t.Run(name, func(t *testing.T) { checkTruthTable(t, nw, r) })
	}
}

// TestTruthTableMatchesStepRandom checks seeded random DAGs with 0 to 20
// inputs, including the sub-word widths where the row mask matters.
func TestTruthTableMatchesStepRandom(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for npi := 0; npi <= 20; npi++ {
		for seed := int64(0); seed < 3; seed++ {
			gseed := int64(npi)*100 + seed
			gr := rand.New(rand.NewSource(gseed))
			nw, err := circuits.RandomDAG(gr, npi, 0, 20+gr.Intn(30))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("rand%d_%d", gseed, npi), func(t *testing.T) { checkTruthTable(t, nw, r) })
		}
	}
}
