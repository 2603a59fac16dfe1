package circuits

import (
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/sim"
)

func TestRippleAdderExhaustive(t *testing.T) {
	const n = 4
	nw, err := RippleAdder(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 1<<n; a++ {
		for b := 0; b < 1<<n; b++ {
			for c := 0; c < 2; c++ {
				in := append(append(sim.UintToBits(uint(a), n), sim.UintToBits(uint(b), n)...), c == 1)
				out, err := nw.EvalComb(in)
				if err != nil {
					t.Fatal(err)
				}
				got := sim.BitsToUint(out)
				want := uint(a + b + c)
				if got != want {
					t.Fatalf("add(%d,%d,%d) = %d, want %d", a, b, c, got, want)
				}
			}
		}
	}
}

func TestCLAAdderMatchesRipple(t *testing.T) {
	const n = 5
	cla, err := CLAAdder(n)
	if err != nil {
		t.Fatal(err)
	}
	rip, err := RippleAdder(n)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := logic.Equivalent(cla, rip)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("CLA and ripple adders differ")
	}
	// CLA must be shallower for nontrivial widths.
	_, dCLA, _ := cla.Levels()
	_, dRip, _ := rip.Levels()
	if dCLA >= dRip {
		t.Errorf("CLA depth %d not shallower than ripple depth %d", dCLA, dRip)
	}
}

func TestArrayMultiplier(t *testing.T) {
	const n = 4
	nw, err := ArrayMultiplier(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 1<<n; a++ {
		for b := 0; b < 1<<n; b++ {
			in := append(sim.UintToBits(uint(a), n), sim.UintToBits(uint(b), n)...)
			out, err := nw.EvalComb(in)
			if err != nil {
				t.Fatal(err)
			}
			got := sim.BitsToUint(out)
			want := uint(a * b)
			if got != want {
				t.Fatalf("mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestComparator(t *testing.T) {
	const n = 4
	nw, err := Comparator(n)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 1<<n; c++ {
		for d := 0; d < 1<<n; d++ {
			in := append(sim.UintToBits(uint(c), n), sim.UintToBits(uint(d), n)...)
			out, err := nw.EvalComb(in)
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != (c > d) {
				t.Fatalf("cmp(%d,%d) = %v", c, d, out[0])
			}
		}
	}
}

func TestParityTreeAndChainEquivalent(t *testing.T) {
	for _, n := range []int{2, 3, 7, 8} {
		tree, err := ParityTree(n)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := ParityChain(n)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := logic.Equivalent(tree, chain)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("n=%d: tree and chain parity differ", n)
		}
	}
	// Depth: chain is n-1, tree is ceil(log2 n).
	tree, _ := ParityTree(8)
	chain, _ := ParityChain(8)
	_, dt, _ := tree.Levels()
	_, dc, _ := chain.Levels()
	if dt != 3 || dc != 7 {
		t.Errorf("depths tree=%d chain=%d, want 3 and 7", dt, dc)
	}
}

func TestDecoder(t *testing.T) {
	const n = 3
	nw, err := Decoder(n)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 1<<n; a++ {
		out, err := nw.EvalComb(sim.UintToBits(uint(a), n))
		if err != nil {
			t.Fatal(err)
		}
		for m, v := range out {
			if v != (m == a) {
				t.Fatalf("decode(%d): output %d = %v", a, m, v)
			}
		}
	}
}

func TestALU(t *testing.T) {
	const n = 4
	nw, err := ALU(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		a := r.Intn(1 << n)
		b := r.Intn(1 << n)
		op := r.Intn(4)
		in := append(sim.UintToBits(uint(a), n), sim.UintToBits(uint(b), n)...)
		in = append(in, op&1 != 0, op&2 != 0)
		out, err := nw.EvalComb(in)
		if err != nil {
			t.Fatal(err)
		}
		got := sim.BitsToUint(out)
		var want uint
		switch op {
		case 0:
			want = uint(a & b)
		case 1:
			want = uint(a | b)
		case 2:
			want = uint(a ^ b)
		case 3:
			want = uint(a+b) & ((1 << (n + 1)) - 1) // includes cout
		}
		if got != want {
			t.Fatalf("alu op=%d (%d,%d) = %d, want %d", op, a, b, got, want)
		}
	}
}

func TestMuxTree(t *testing.T) {
	const k = 3
	nw, err := MuxTree(k)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		data := r.Intn(1 << (1 << k))
		sel := r.Intn(1 << k)
		in := append(sim.UintToBits(uint(data), 1<<k), sim.UintToBits(uint(sel), k)...)
		out, err := nw.EvalComb(in)
		if err != nil {
			t.Fatal(err)
		}
		want := data&(1<<sel) != 0
		if out[0] != want {
			t.Fatalf("mux(data=%x, sel=%d) = %v, want %v", data, sel, out[0], want)
		}
	}
}

func TestGeneratorArgumentValidation(t *testing.T) {
	if _, err := RippleAdder(0); err == nil {
		t.Error("RippleAdder(0) should fail")
	}
	if _, err := CLAAdder(-1); err == nil {
		t.Error("CLAAdder(-1) should fail")
	}
	if _, err := ArrayMultiplier(1); err == nil {
		t.Error("ArrayMultiplier(1) should fail")
	}
	if _, err := Comparator(0); err == nil {
		t.Error("Comparator(0) should fail")
	}
	if _, err := ParityTree(1); err == nil {
		t.Error("ParityTree(1) should fail")
	}
	if _, err := ParityChain(1); err == nil {
		t.Error("ParityChain(1) should fail")
	}
	if _, err := Decoder(11); err == nil {
		t.Error("Decoder(11) should fail")
	}
	if _, err := ALU(0); err == nil {
		t.Error("ALU(0) should fail")
	}
	if _, err := MuxTree(0); err == nil {
		t.Error("MuxTree(0) should fail")
	}
}

func TestAllGeneratorsPassCheck(t *testing.T) {
	gens := map[string]func() (*logic.Network, error){
		"ripple8": func() (*logic.Network, error) { return RippleAdder(8) },
		"cla8":    func() (*logic.Network, error) { return CLAAdder(8) },
		"mult6":   func() (*logic.Network, error) { return ArrayMultiplier(6) },
		"cmp16":   func() (*logic.Network, error) { return Comparator(16) },
		"par16":   func() (*logic.Network, error) { return ParityTree(16) },
		"parch16": func() (*logic.Network, error) { return ParityChain(16) },
		"dec5":    func() (*logic.Network, error) { return Decoder(5) },
		"alu8":    func() (*logic.Network, error) { return ALU(8) },
		"mux16":   func() (*logic.Network, error) { return MuxTree(4) },
	}
	for name, g := range gens {
		nw, err := g()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := nw.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// The dot-separated module prefixes in generator gate names are a stable
// interface: internal/obsv/profile aggregates switched capacitance along
// them, so a silent rename would corrupt recorded attribution profiles.
func TestHierarchicalNamesStable(t *testing.T) {
	cases := []struct {
		gen   func() (*logic.Network, error)
		names []string
	}{
		{func() (*logic.Network, error) { return RippleAdder(4) },
			[]string{"fa0.axb", "fa0.s", "fa0.ab", "fa0.cc", "fa0.co", "fa3.s"}},
		{func() (*logic.Network, error) { return CLAAdder(4) },
			[]string{"pg0.g", "pg0.p", "cy2.t0", "cy2.o", "s0"}},
		{func() (*logic.Network, error) { return ArrayMultiplier(3) },
			[]string{"pp.p0_0", "pp.p2_2", "fa1.xy", "fa1.s", "fa1.c", "ha0.s"}},
		{func() (*logic.Network, error) { return Comparator(3) },
			[]string{"bit0.nd", "bit0.gt", "bit1.eq", "bit1.kp", "bit2.acc"}},
		{func() (*logic.Network, error) { return ParityTree(8) },
			[]string{"lvl0.p0", "lvl1.p1", "lvl2.p0"}},
		{func() (*logic.Network, error) { return ALU(2) },
			[]string{"dec.selAdd", "bit0.and", "bit0.sum", "bit1.f", "cout"}},
		{func() (*logic.Network, error) { return MuxTree(2) },
			[]string{"lvl0.ns", "lvl0.a0", "lvl1.o0"}},
	}
	for _, c := range cases {
		nw, err := c.gen()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range c.names {
			if nw.ByName(name) == logic.InvalidNode {
				t.Errorf("%s: expected stable node name %q missing", nw.Name, name)
			}
		}
	}
}

func TestGeneratorRegistry(t *testing.T) {
	names := GeneratorNames()
	if len(names) == 0 {
		t.Fatal("empty generator registry")
	}
	for _, name := range names {
		nw, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if err := nw.Check(); err != nil {
			t.Fatalf("Named(%q) built an inconsistent network: %v", name, err)
		}
		// Fresh instance per call: mutating one build must not leak into
		// the next (lpserverd caches and clones these).
		again, err := Named(name)
		if err != nil {
			t.Fatal(err)
		}
		if nw == again {
			t.Fatalf("Named(%q) returned a shared instance", name)
		}
	}
	if _, err := Named("no-such-circuit"); err == nil {
		t.Fatal("unknown circuit name did not error")
	}
}
