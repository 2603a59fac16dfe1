package circuits

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/sim"
)

func TestBLIFCorpusLoads(t *testing.T) {
	corpus, err := BLIFCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for name, nw := range corpus {
		if err := nw.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if len(corpus) < 5 {
		t.Errorf("corpus has only %d circuits", len(corpus))
	}
}

func TestC17Function(t *testing.T) {
	corpus, err := BLIFCorpus()
	if err != nil {
		t.Fatal(err)
	}
	c17 := corpus["c17"]
	// Reference: the standard 6-NAND netlist.
	for m := 0; m < 32; m++ {
		n1 := m&1 != 0
		n2 := m&2 != 0
		n3 := m&4 != 0
		n6 := m&8 != 0
		n7 := m&16 != 0
		g10 := !(n1 && n3)
		g11 := !(n3 && n6)
		g16 := !(n2 && g11)
		g19 := !(g11 && n7)
		w22 := !(g10 && g16)
		w23 := !(g16 && g19)
		out, err := c17.EvalComb([]bool{n1, n2, n3, n6, n7})
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != w22 || out[1] != w23 {
			t.Fatalf("minterm %d: got %v/%v want %v/%v", m, out[0], out[1], w22, w23)
		}
	}
}

func TestMaj3AndFullAdder(t *testing.T) {
	corpus, err := BLIFCorpus()
	if err != nil {
		t.Fatal(err)
	}
	maj := corpus["maj3"]
	fa := corpus["fadd"]
	for m := 0; m < 8; m++ {
		a, b, c := m&1 != 0, m&2 != 0, m&4 != 0
		ones := 0
		for _, v := range []bool{a, b, c} {
			if v {
				ones++
			}
		}
		mo, err := maj.EvalComb([]bool{a, b, c})
		if err != nil {
			t.Fatal(err)
		}
		if mo[0] != (ones >= 2) {
			t.Errorf("maj3(%v,%v,%v) = %v", a, b, c, mo[0])
		}
		fo, err := fa.EvalComb([]bool{a, b, c})
		if err != nil {
			t.Fatal(err)
		}
		if fo[0] != (ones%2 == 1) || fo[1] != (ones >= 2) {
			t.Errorf("fadd(%v,%v,%v) = %v,%v", a, b, c, fo[0], fo[1])
		}
	}
}

func TestCmp2Function(t *testing.T) {
	corpus, err := BLIFCorpus()
	if err != nil {
		t.Fatal(err)
	}
	cmp := corpus["cmp2"]
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			in := []bool{a&2 != 0, a&1 != 0, b&2 != 0, b&1 != 0} // a1 a0 b1 b0
			out, err := cmp.EvalComb(in)
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != (a > b) {
				t.Errorf("cmp2(%d,%d) = %v", a, b, out[0])
			}
		}
	}
}

func TestCnt2Counts(t *testing.T) {
	corpus, err := BLIFCorpus()
	if err != nil {
		t.Fatal(err)
	}
	cnt := corpus["cnt2"]
	st := logic.NewState(cnt)
	val := 0
	for cyc := 0; cyc < 20; cyc++ {
		en := cyc%3 != 0
		out, err := st.Step([]bool{en})
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		if out[1] { // q0
			got |= 1
		}
		if out[0] { // q1
			got |= 2
		}
		if got != val {
			t.Fatalf("cycle %d: count=%d want %d", cyc, got, val)
		}
		if en {
			val = (val + 1) % 4
		}
	}
}

func TestCorpusThroughSimulator(t *testing.T) {
	// Every corpus circuit must be simulable with glitch accounting.
	corpus, err := BLIFCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for name, nw := range corpus {
		s, err := sim.New(nw, sim.UnitDelay)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vecs := make([][]bool, 50)
		for i := range vecs {
			v := make([]bool, len(nw.PIs()))
			for j := range v {
				v[j] = (i+j)%2 == 0
			}
			vecs[i] = v
		}
		st, err := sim.PackVectors(vecs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := s.Run(st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
