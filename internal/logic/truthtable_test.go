package logic_test

import (
	"errors"
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

// randomComb builds a seeded random combinational DAG over npi inputs and
// both constants, covering every gate type.
func randomComb(seed int64, npi int) *logic.Network {
	r := rand.New(rand.NewSource(seed))
	nw := logic.New(fmt.Sprintf("rand%d_%d", seed, npi))
	var pool []logic.NodeID
	for i := 0; i < npi; i++ {
		pool = append(pool, nw.MustInput(fmt.Sprintf("i%d", i)))
	}
	for i, v := range []bool{false, true} {
		c, err := nw.AddConst(fmt.Sprintf("k%d", i), v)
		if err != nil {
			panic(err)
		}
		pool = append(pool, c)
	}
	types := []logic.GateType{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor, logic.Not, logic.Buf}
	for i := 0; i < 20+r.Intn(30); i++ {
		gt := types[r.Intn(len(types))]
		k := 2 + r.Intn(3)
		if gt == logic.Not || gt == logic.Buf {
			k = 1
		}
		fanin := make([]logic.NodeID, k)
		for j := range fanin {
			fanin[j] = pool[r.Intn(len(pool))]
		}
		pool = append(pool, nw.MustGate(fmt.Sprintf("g%d", i), gt, fanin...))
	}
	for i := 0; i < 4; i++ {
		if err := nw.MarkOutput(pool[len(pool)-1-r.Intn(10)]); err != nil {
			panic(err)
		}
	}
	return nw
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
			nw := randomComb(int64(npi)*100+seed, npi)
			t.Run(nw.Name, func(t *testing.T) { checkTruthTable(t, nw, r) })
		}
	}
}

// TestEvalPackedErrors checks the word kernel's typed errors: non-gate
// types and fanin-less gates are rejected, never panic.
func TestEvalPackedErrors(t *testing.T) {
	val := make([]uint64, 4)
	for _, typ := range []logic.GateType{logic.Input, logic.DFF, logic.GateType(99)} {
		n := &logic.Node{Type: typ, Fanin: []logic.NodeID{0}}
		_, err := logic.EvalPacked(n, val)
		var ue *logic.UnsupportedGateError
		if !errors.As(err, &ue) || !errors.Is(err, logic.ErrUnsupportedGate) {
			t.Errorf("%s: got %v, want *UnsupportedGateError", typ, err)
		}
	}
	for _, typ := range []logic.GateType{logic.Buf, logic.Not, logic.And, logic.Xnor} {
		_, err := logic.EvalPacked(&logic.Node{Type: typ}, val)
		var ne *logic.NoFaninError
		if !errors.As(err, &ne) || ne.Type != typ {
			t.Errorf("%s with no fanins: got %v, want *NoFaninError", typ, err)
		}
	}
	for typ, want := range map[logic.GateType]uint64{logic.Const0: 0, logic.Const1: ^uint64(0)} {
		if w, err := logic.EvalPacked(&logic.Node{Type: typ}, val); err != nil || w != want {
			t.Errorf("%s: %#x, %v", typ, w, err)
		}
	}
}

// TestEvalPackedMatchesEvalGate checks every gate type lane by lane
// against the scalar evaluator.
func TestEvalPackedMatchesEvalGate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	val := []uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
	for _, typ := range []logic.GateType{logic.Buf, logic.Not, logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor} {
		fanin := []logic.NodeID{0, 1, 2, 3}
		if typ == logic.Buf || typ == logic.Not {
			fanin = fanin[:1]
		}
		w, err := logic.EvalPacked(&logic.Node{Type: typ, Fanin: fanin}, val)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]bool, len(fanin))
		for lane := 0; lane < 64; lane++ {
			for j, f := range fanin {
				in[j] = val[f]>>lane&1 == 1
			}
			if got := w>>lane&1 == 1; got != logic.EvalGate(typ, in) {
				t.Fatalf("%s lane %d: %v", typ, lane, got)
			}
		}
	}
}
