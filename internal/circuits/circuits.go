// Package circuits generates the parameterized benchmark netlists used by
// the experiments: adders, multipliers, comparators, parity trees, decoders
// and a small ALU. These stand in for the MCNC/ISCAS benchmark suites of
// the surveyed papers — they exercise the same structural regimes
// (carry chains, reconvergent fanout, unbalanced path delays).
//
// Gate names are hierarchical: dot-separated segments name the module
// instance a gate belongs to ("fa3.s" = sum output of full-adder cell 3),
// and the power-attribution profiler (internal/obsv/profile) aggregates
// per-node switched capacitance along these prefixes. The names are part
// of the generators' stable interface — renaming a module breaks recorded
// profiles and folded-stack baselines.
package circuits

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logic"
)

// inputBus declares width named inputs name0..name{width-1}, LSB first.
func inputBus(nw *logic.Network, name string, width int) []logic.NodeID {
	ids := make([]logic.NodeID, width)
	for i := range ids {
		ids[i] = nw.MustInput(fmt.Sprintf("%s%d", name, i))
	}
	return ids
}

// RippleAdder builds an n-bit ripple-carry adder with inputs a, b and
// carry-in cin, outputs s0..s{n-1} and cout. The carry chain makes its
// high-order outputs deep and glitch-prone — the canonical path-balancing
// target.
func RippleAdder(n int) (*logic.Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("circuits: RippleAdder width %d", n)
	}
	nw := logic.New(fmt.Sprintf("radd%d", n))
	a := inputBus(nw, "a", n)
	b := inputBus(nw, "b", n)
	c := nw.MustInput("cin")
	for i := 0; i < n; i++ {
		axb := nw.MustGate(fmt.Sprintf("fa%d.axb", i), logic.Xor, a[i], b[i])
		s := nw.MustGate(fmt.Sprintf("fa%d.s", i), logic.Xor, axb, c)
		ab := nw.MustGate(fmt.Sprintf("fa%d.ab", i), logic.And, a[i], b[i])
		ac := nw.MustGate(fmt.Sprintf("fa%d.cc", i), logic.And, axb, c)
		c = nw.MustGate(fmt.Sprintf("fa%d.co", i), logic.Or, ab, ac)
		if err := nw.MarkOutput(s); err != nil {
			return nil, err
		}
	}
	if err := nw.MarkOutput(c); err != nil {
		return nil, err
	}
	return nw, nil
}

// CLAAdder builds an n-bit carry-lookahead adder (single-level lookahead
// over all n bits). Its carry tree is much shallower than the ripple
// chain: same function, different path-delay profile.
func CLAAdder(n int) (*logic.Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("circuits: CLAAdder width %d", n)
	}
	nw := logic.New(fmt.Sprintf("cla%d", n))
	a := inputBus(nw, "a", n)
	b := inputBus(nw, "b", n)
	cin := nw.MustInput("cin")
	g := make([]logic.NodeID, n)
	p := make([]logic.NodeID, n)
	for i := 0; i < n; i++ {
		g[i] = nw.MustGate(fmt.Sprintf("pg%d.g", i), logic.And, a[i], b[i])
		p[i] = nw.MustGate(fmt.Sprintf("pg%d.p", i), logic.Xor, a[i], b[i])
	}
	// c[i+1] = g[i] + p[i]g[i-1] + ... + p[i]..p[0]cin
	carries := make([]logic.NodeID, n+1)
	carries[0] = cin
	for i := 0; i < n; i++ {
		terms := []logic.NodeID{g[i]}
		for j := i; j >= 0; j-- {
			// p[i] & p[i-1] & ... & p[j] & (g[j-1] or cin)
			ands := make([]logic.NodeID, 0, i-j+2)
			for k := j; k <= i; k++ {
				ands = append(ands, p[k])
			}
			if j == 0 {
				ands = append(ands, cin)
			} else {
				ands = append(ands, g[j-1])
			}
			var t logic.NodeID
			if len(ands) == 1 {
				t = ands[0]
			} else {
				t = nw.MustGate(fmt.Sprintf("cy%d.t%d", i+1, j), logic.And, ands...)
			}
			terms = append(terms, t)
		}
		if len(terms) == 1 {
			carries[i+1] = terms[0]
		} else {
			carries[i+1] = nw.MustGate(fmt.Sprintf("cy%d.o", i+1), logic.Or, terms...)
		}
	}
	for i := 0; i < n; i++ {
		s := nw.MustGate(fmt.Sprintf("s%d", i), logic.Xor, p[i], carries[i])
		if err := nw.MarkOutput(s); err != nil {
			return nil, err
		}
	}
	if err := nw.MarkOutput(carries[n]); err != nil {
		return nil, err
	}
	return nw, nil
}

// ArrayMultiplier builds an n×n unsigned array multiplier producing a
// 2n-bit product, using column-wise carry-save reduction with full and
// half adders. Array multipliers are the survey's showcase for glitch
// power ([25]): partial-product carries ripple through a 2-D array with
// very unequal path depths.
func ArrayMultiplier(n int) (*logic.Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("circuits: ArrayMultiplier width %d", n)
	}
	nw := logic.New(fmt.Sprintf("mult%d", n))
	a := inputBus(nw, "a", n)
	b := inputBus(nw, "b", n)
	// Column w collects all bits of weight 2^w.
	cols := make([][]logic.NodeID, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pp := nw.MustGate(fmt.Sprintf("pp.p%d_%d", i, j), logic.And, a[j], b[i])
			cols[i+j] = append(cols[i+j], pp)
		}
	}
	seq := 0
	for w := 0; w < 2*n; w++ {
		for len(cols[w]) > 1 {
			if len(cols[w]) >= 3 {
				x, y, z := cols[w][0], cols[w][1], cols[w][2]
				cols[w] = cols[w][3:]
				tag := fmt.Sprintf("fa%d", seq)
				seq++
				xy := nw.MustGate(tag+".xy", logic.Xor, x, y)
				s := nw.MustGate(tag+".s", logic.Xor, xy, z)
				t1 := nw.MustGate(tag+".t1", logic.And, x, y)
				t2 := nw.MustGate(tag+".t2", logic.And, xy, z)
				c := nw.MustGate(tag+".c", logic.Or, t1, t2)
				cols[w] = append(cols[w], s)
				cols[w+1] = append(cols[w+1], c)
			} else {
				x, y := cols[w][0], cols[w][1]
				cols[w] = cols[w][2:]
				tag := fmt.Sprintf("ha%d", seq)
				seq++
				s := nw.MustGate(tag+".s", logic.Xor, x, y)
				c := nw.MustGate(tag+".c", logic.And, x, y)
				cols[w] = append(cols[w], s)
				cols[w+1] = append(cols[w+1], c)
			}
		}
	}
	for w := 0; w < 2*n; w++ {
		var out logic.NodeID
		if len(cols[w]) == 1 {
			out = cols[w][0]
		} else {
			z, err := nw.AddConst(fmt.Sprintf("z%d", w), false)
			if err != nil {
				return nil, err
			}
			out = z
		}
		if err := nw.MarkOutput(out); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

// Comparator builds the survey's Figure 1 circuit: an n-bit magnitude
// comparator computing C > D. It is implemented MSB-first: the output is
// c[n-1]·!d[n-1] + eq[n-1]·( c[n-2]·!d[n-2] + eq[n-2]·( ... )).
func Comparator(n int) (*logic.Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("circuits: Comparator width %d", n)
	}
	nw := logic.New(fmt.Sprintf("cmp%d", n))
	c := inputBus(nw, "c", n)
	d := inputBus(nw, "d", n)
	var acc logic.NodeID // "C > D considering bits below i"
	for i := 0; i < n; i++ {
		nd := nw.MustGate(fmt.Sprintf("bit%d.nd", i), logic.Not, d[i])
		gt := nw.MustGate(fmt.Sprintf("bit%d.gt", i), logic.And, c[i], nd)
		if i == 0 {
			acc = gt
			continue
		}
		eq := nw.MustGate(fmt.Sprintf("bit%d.eq", i), logic.Xnor, c[i], d[i])
		keep := nw.MustGate(fmt.Sprintf("bit%d.kp", i), logic.And, eq, acc)
		acc = nw.MustGate(fmt.Sprintf("bit%d.acc", i), logic.Or, gt, keep)
	}
	if err := nw.MarkOutput(acc); err != nil {
		return nil, err
	}
	return nw, nil
}

// ParityTree builds a balanced XOR tree over n inputs.
func ParityTree(n int) (*logic.Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("circuits: ParityTree width %d", n)
	}
	nw := logic.New(fmt.Sprintf("par%d", n))
	layer := inputBus(nw, "x", n)
	lvl := 0
	for len(layer) > 1 {
		var next []logic.NodeID
		for i := 0; i+1 < len(layer); i += 2 {
			next = append(next, nw.MustGate(fmt.Sprintf("lvl%d.p%d", lvl, i/2), logic.Xor, layer[i], layer[i+1]))
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
		lvl++
	}
	if err := nw.MarkOutput(layer[0]); err != nil {
		return nil, err
	}
	return nw, nil
}

// ParityChain builds a linear (maximally unbalanced) XOR chain over n
// inputs — same function as ParityTree, worst-case path imbalance.
func ParityChain(n int) (*logic.Network, error) {
	if n < 2 {
		return nil, fmt.Errorf("circuits: ParityChain width %d", n)
	}
	nw := logic.New(fmt.Sprintf("parch%d", n))
	x := inputBus(nw, "x", n)
	acc := x[0]
	for i := 1; i < n; i++ {
		acc = nw.MustGate(fmt.Sprintf("p%d", i), logic.Xor, acc, x[i])
	}
	if err := nw.MarkOutput(acc); err != nil {
		return nil, err
	}
	return nw, nil
}

// Decoder builds an n-to-2^n one-hot decoder.
func Decoder(n int) (*logic.Network, error) {
	if n < 1 || n > 10 {
		return nil, fmt.Errorf("circuits: Decoder width %d", n)
	}
	nw := logic.New(fmt.Sprintf("dec%d", n))
	a := inputBus(nw, "a", n)
	na := make([]logic.NodeID, n)
	for i := range a {
		na[i] = nw.MustGate(fmt.Sprintf("na%d", i), logic.Not, a[i])
	}
	for m := 0; m < 1<<n; m++ {
		lits := make([]logic.NodeID, n)
		for i := 0; i < n; i++ {
			if m&(1<<i) != 0 {
				lits[i] = a[i]
			} else {
				lits[i] = na[i]
			}
		}
		var y logic.NodeID
		if n == 1 {
			y = nw.MustGate(fmt.Sprintf("y%d", m), logic.Buf, lits[0])
		} else {
			y = nw.MustGate(fmt.Sprintf("y%d", m), logic.And, lits...)
		}
		if err := nw.MarkOutput(y); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

// ALU computes, per op code on inputs a, b (n bits):
//
//	00 AND, 01 OR, 10 XOR, 11 ADD (with carry out)
func ALU(n int) (*logic.Network, error) {
	if n < 1 {
		return nil, fmt.Errorf("circuits: ALU width %d", n)
	}
	nw := logic.New(fmt.Sprintf("alu%d", n))
	a := inputBus(nw, "a", n)
	b := inputBus(nw, "b", n)
	op0 := nw.MustInput("op0")
	op1 := nw.MustInput("op1")
	nop0 := nw.MustGate("dec.nop0", logic.Not, op0)
	nop1 := nw.MustGate("dec.nop1", logic.Not, op1)
	selAnd := nw.MustGate("dec.selAnd", logic.And, nop1, nop0)
	selOr := nw.MustGate("dec.selOr", logic.And, nop1, op0)
	selXor := nw.MustGate("dec.selXor", logic.And, op1, nop0)
	selAdd := nw.MustGate("dec.selAdd", logic.And, op1, op0)
	// Carry chain seeded at constant 0.
	carry, err := nw.AddConst("zero", false)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		andI := nw.MustGate(fmt.Sprintf("bit%d.and", i), logic.And, a[i], b[i])
		orI := nw.MustGate(fmt.Sprintf("bit%d.or", i), logic.Or, a[i], b[i])
		xorI := nw.MustGate(fmt.Sprintf("bit%d.xor", i), logic.Xor, a[i], b[i])
		sumI := nw.MustGate(fmt.Sprintf("bit%d.sum", i), logic.Xor, xorI, carry)
		cI := nw.MustGate(fmt.Sprintf("bit%d.cnd", i), logic.And, xorI, carry)
		carry = nw.MustGate(fmt.Sprintf("bit%d.cy", i), logic.Or, andI, cI)
		t0 := nw.MustGate(fmt.Sprintf("bit%d.m0", i), logic.And, selAnd, andI)
		t1 := nw.MustGate(fmt.Sprintf("bit%d.m1", i), logic.And, selOr, orI)
		t2 := nw.MustGate(fmt.Sprintf("bit%d.m2", i), logic.And, selXor, xorI)
		t3 := nw.MustGate(fmt.Sprintf("bit%d.m3", i), logic.And, selAdd, sumI)
		y := nw.MustGate(fmt.Sprintf("bit%d.f", i), logic.Or, t0, t1, t2, t3)
		if err := nw.MarkOutput(y); err != nil {
			return nil, err
		}
	}
	cout := nw.MustGate("cout", logic.And, selAdd, carry)
	if err := nw.MarkOutput(cout); err != nil {
		return nil, err
	}
	return nw, nil
}

// MuxTree builds a 2^k:1 multiplexer with k select lines: inputs
// d0..d{2^k-1} and s0..s{k-1}.
func MuxTree(k int) (*logic.Network, error) {
	if k < 1 || k > 8 {
		return nil, fmt.Errorf("circuits: MuxTree selects %d", k)
	}
	nw := logic.New(fmt.Sprintf("mux%d", 1<<k))
	d := inputBus(nw, "d", 1<<k)
	s := inputBus(nw, "s", k)
	layer := d
	for lvl := 0; lvl < k; lvl++ {
		ns := nw.MustGate(fmt.Sprintf("lvl%d.ns", lvl), logic.Not, s[lvl])
		var next []logic.NodeID
		for i := 0; i+1 < len(layer); i += 2 {
			t0 := nw.MustGate(fmt.Sprintf("lvl%d.a%d", lvl, i), logic.And, ns, layer[i])
			t1 := nw.MustGate(fmt.Sprintf("lvl%d.b%d", lvl, i), logic.And, s[lvl], layer[i+1])
			next = append(next, nw.MustGate(fmt.Sprintf("lvl%d.o%d", lvl, i), logic.Or, t0, t1))
		}
		layer = next
	}
	if err := nw.MarkOutput(layer[0]); err != nil {
		return nil, err
	}
	return nw, nil
}

// Generator builds one named benchmark circuit. Every call returns a
// fresh, independent network.
type Generator func() (*logic.Network, error)

// generators is the shared registry of named benchmark circuits. The
// names are part of the external interface: lpflow -circuit, powerest
// -circuit and the lpserverd "circuit" request field all resolve here, so
// a rename is a breaking API change.
var generators = map[string]Generator{
	"radd8":  func() (*logic.Network, error) { return RippleAdder(8) },
	"radd16": func() (*logic.Network, error) { return RippleAdder(16) },
	"cla8":   func() (*logic.Network, error) { return CLAAdder(8) },
	"mult4":  func() (*logic.Network, error) { return ArrayMultiplier(4) },
	"mult5":  func() (*logic.Network, error) { return ArrayMultiplier(5) },
	"mult6":  func() (*logic.Network, error) { return ArrayMultiplier(6) },
	"cmp8":   func() (*logic.Network, error) { return Comparator(8) },
	"cmp16":  func() (*logic.Network, error) { return Comparator(16) },
	"alu4":   func() (*logic.Network, error) { return ALU(4) },
	"par16":  func() (*logic.Network, error) { return ParityTree(16) },
	"dec5":   func() (*logic.Network, error) { return Decoder(5) },
	"mux16":  func() (*logic.Network, error) { return MuxTree(4) },
}

// GeneratorNames lists the registry names, sorted.
func GeneratorNames() []string {
	names := make([]string, 0, len(generators))
	for n := range generators {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Named builds the circuit registered under name, or an error naming the
// valid choices.
func Named(name string) (*logic.Network, error) {
	g, ok := generators[name]
	if !ok {
		return nil, fmt.Errorf("circuits: unknown circuit %q (choose from %s)",
			name, strings.Join(GeneratorNames(), " "))
	}
	return g()
}
