package logic_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// TestCompiledEvalMatchesEvalGate checks the opcode kernel against the
// switch evaluator for every gate type, fanin count 1-5 (where legal) and
// every fanin assignment, including repeated fanins.
func TestCompiledEvalMatchesEvalGate(t *testing.T) {
	types := []logic.GateType{logic.Buf, logic.Not, logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor}
	for _, typ := range types {
		for k := typ.MinFanin(); k <= 5 && (typ.MaxFanin() < 0 || k <= typ.MaxFanin()); k++ {
			nw := logic.New("g")
			var pis, fanin []logic.NodeID
			for i := 0; i < k; i++ {
				pis = append(pis, nw.MustInput(string(rune('a'+i))))
			}
			fanin = append(fanin, pis...)
			g := nw.MustGate("g", typ, fanin...)
			// The same pins twice: opcodes count ones per pin, as EvalGate does.
			var g2 logic.NodeID
			if typ.MaxFanin() < 0 {
				g2 = nw.MustGate("g2", typ, append(fanin, fanin...)...)
			}
			cv, err := nw.Compile()
			if err != nil {
				t.Fatal(err)
			}
			val := make([]bool, nw.NumNodes())
			in := make([]bool, k)
			for m := 0; m < 1<<k; m++ {
				for i := range in {
					in[i] = m>>i&1 == 1
					val[pis[i]] = in[i]
				}
				if got, want := cv.Eval(int32(g), val), logic.EvalGate(typ, in); got != want {
					t.Errorf("%s/%d inputs %v: Eval %v, EvalGate %v", typ, k, in, got, want)
				}
				if typ.MaxFanin() < 0 {
					twice := append(append([]bool(nil), in...), in...)
					if got, want := cv.Eval(int32(g2), val), logic.EvalGate(typ, twice); got != want {
						t.Errorf("%s/%d doubled inputs %v: Eval %v, EvalGate %v", typ, 2*k, in, got, want)
					}
				}
			}
		}
	}
}

// TestEvalWordMatchesEvalGate checks the word kernel lane by lane against
// the switch evaluator for every gate type at fanin 1-8 (where legal),
// with distinct pins and with the first net read on two pins, and the
// constants' all-zero and all-one words.
func TestEvalWordMatchesEvalGate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	nw := logic.New("w")
	var pis []logic.NodeID
	for i := 0; i < 8; i++ {
		pis = append(pis, nw.MustInput(fmt.Sprint("x", i)))
	}
	type gate struct {
		id    logic.NodeID
		typ   logic.GateType
		fanin []logic.NodeID
	}
	var gates []gate
	types := []logic.GateType{logic.Buf, logic.Not, logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor}
	for _, typ := range types {
		for k := typ.MinFanin(); k <= 8 && (typ.MaxFanin() < 0 || k <= typ.MaxFanin()); k++ {
			fanins := [][]logic.NodeID{pis[:k]}
			if k >= 2 {
				fanins = append(fanins, append(append([]logic.NodeID(nil), pis[:k-1]...), pis[0]))
			}
			for _, fanin := range fanins {
				id := nw.MustGate(fmt.Sprint("g", len(gates)), typ, fanin...)
				gates = append(gates, gate{id, typ, fanin})
			}
		}
	}
	c0, err := nw.AddConst("c0", false)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := nw.AddConst("c1", true)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := nw.Compile()
	if err != nil {
		t.Fatal(err)
	}
	val := make([]uint64, nw.NumNodes())
	for _, pi := range pis {
		val[pi] = r.Uint64()
	}
	for _, g := range gates {
		w := cv.EvalWord(int32(g.id), val)
		in := make([]bool, len(g.fanin))
		for lane := 0; lane < 64; lane++ {
			for j, f := range g.fanin {
				in[j] = val[f]>>lane&1 == 1
			}
			if got, want := w>>lane&1 == 1, logic.EvalGate(g.typ, in); got != want {
				t.Fatalf("%s over %v, lane %d: EvalWord %v, EvalGate %v", g.typ, g.fanin, lane, got, want)
			}
		}
	}
	if w0, w1 := cv.EvalWord(int32(c0), val), cv.EvalWord(int32(c1), val); w0 != 0 || w1 != ^uint64(0) {
		t.Errorf("constants: %#x, %#x", w0, w1)
	}
}

// TestCompiledView checks the view's CSR lists against the network: pin-
// order fanins, fanout-order gate consumers without flip-flops, the
// topological order and the flip-flop D inputs and reset values.
func TestCompiledView(t *testing.T) {
	nw := logic.New("v")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	k, err := nw.AddConst("k", true)
	if err != nil {
		t.Fatal(err)
	}
	g := nw.MustGate("g", logic.And, a, b, a)
	h := nw.MustGate("h", logic.Xor, g, k)
	q, err := nw.AddDFF("q", h, true)
	if err != nil {
		t.Fatal(err)
	}
	o := nw.MustGate("o", logic.Or, q, g)
	if err := nw.MarkOutput(o); err != nil {
		t.Fatal(err)
	}
	cv, err := nw.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ids := func(s []int32) []logic.NodeID {
		out := make([]logic.NodeID, len(s))
		for i, v := range s {
			out[i] = logic.NodeID(v)
		}
		return out
	}
	for id := 0; id < nw.NumNodes(); id++ {
		n := nw.Node(logic.NodeID(id))
		fan := ids(cv.Fanin[cv.FaninStart[id]:cv.FaninStart[id+1]])
		if n.Type.IsGate() {
			if !equalIDs(fan, n.Fanin) {
				t.Errorf("%s: fanins %v, want %v", n.Name, fan, n.Fanin)
			}
		} else if len(fan) != 0 {
			t.Errorf("%s: source with fanins %v", n.Name, fan)
		}
		var want []logic.NodeID
		for _, c := range n.Fanout() {
			if nw.Node(c).Type.IsGate() {
				want = append(want, c)
			}
		}
		if cons := ids(cv.Cons[cv.ConsStart[id]:cv.ConsStart[id+1]]); !equalIDs(cons, want) {
			t.Errorf("%s: consumers %v, want %v", n.Name, cons, want)
		}
	}
	order, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(ids(cv.Order), order) {
		t.Errorf("order %v, want %v", cv.Order, order)
	}
	if len(cv.FFs) != 1 || cv.FFs[0] != int32(q) || cv.FFD[0] != int32(h) || !cv.FFInit[0] {
		t.Errorf("flip-flops %v, D %v, init %v", cv.FFs, cv.FFD, cv.FFInit)
	}
	val := make([]bool, nw.NumNodes())
	cv.Reset(val)
	if !val[q] || val[g] || !val[h] || !val[o] {
		t.Errorf("reset state q=%v g=%v h=%v o=%v, want true false true true", val[q], val[g], val[h], val[o])
	}
}

func equalIDs(a, b []logic.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompileCached: repeated calls share one view, and every structural
// mutation replaces it.
func TestCompileCached(t *testing.T) {
	nw := logic.New("c")
	a := nw.MustInput("a")
	g := nw.MustGate("g", logic.Not, a)
	c1, err := nw.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c2, _ := nw.Compile(); c2 != c1 {
		t.Error("second Compile did not return the cached view")
	}
	h := nw.MustGate("h", logic.Buf, g)
	c3, err := nw.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 || len(c3.Order) != 2 || c3.Order[1] != int32(h) {
		t.Errorf("view after AddGate is stale: order %v", c3.Order)
	}
	if err := nw.ReplaceFanin(h, g, a); err != nil {
		t.Fatal(err)
	}
	if c4, _ := nw.Compile(); c4 == c3 || c4.Fanin[c4.FaninStart[h]] != int32(a) {
		t.Error("view after ReplaceFanin is stale")
	}
}

// TestCompileErrors: the view refuses what State used to refuse while
// settling, with the same typed errors, and State.Step surfaces them.
func TestCompileErrors(t *testing.T) {
	build := func() (*logic.Network, logic.NodeID) {
		nw := logic.New("e")
		a := nw.MustInput("a")
		b := nw.MustInput("b")
		g := nw.MustGate("g", logic.And, a, b)
		if err := nw.MarkOutput(g); err != nil {
			t.Fatal(err)
		}
		return nw, g
	}

	nw, g := build()
	nw.Node(g).Type = logic.GateType(99) // hand edit: not a gate
	_, err := nw.Compile()
	var ue *logic.UnsupportedGateError
	if !errors.As(err, &ue) || !errors.Is(err, logic.ErrUnsupportedGate) {
		t.Errorf("unsupported type: Compile gave %v", err)
	}
	if _, err := logic.NewState(nw).Step([]bool{true, true}); !errors.As(err, &ue) {
		t.Errorf("unsupported type: Step gave %v", err)
	}

	for _, typ := range []logic.GateType{logic.Buf, logic.Not, logic.And, logic.Xnor} {
		nw, g = build()
		nw.Node(g).Type = typ
		nw.Node(g).Fanin = nil // hand edit: a gate without fanins
		_, err = nw.Compile()
		var ne *logic.NoFaninError
		if !errors.As(err, &ne) || ne.Type != typ {
			t.Errorf("%s with no fanins: Compile gave %v", typ, err)
		}
		if err := logic.NewState(nw).Settle(); !errors.As(err, &ne) {
			t.Errorf("%s with no fanins: Settle gave %v", typ, err)
		}
	}

	nw, g = build()
	h := nw.MustGate("h", logic.Or, g, g)
	if err := nw.ReplaceFanin(g, nw.PIs()[0], h); err != nil {
		t.Fatal(err)
	}
	_, topoErr := nw.TopoOrder()
	if _, err := nw.Compile(); topoErr == nil || err == nil || err.Error() != topoErr.Error() {
		t.Errorf("cycle: Compile gave %v, TopoOrder %v", err, topoErr)
	}
}

// TestStepAllocatesOnlyOutputs: a warmed Step allocates the output slice
// it returns and nothing else.
func TestStepAllocatesOnlyOutputs(t *testing.T) {
	alu, err := circuits.ALU(4)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := circuits.BLIFCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for name, nw := range map[string]*logic.Network{"alu4": alu, "cnt2": corpus["cnt2"]} {
		st := logic.NewState(nw)
		in := make([]bool, len(nw.PIs()))
		if _, err := st.Step(in); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			in[0] = !in[0]
			if _, err := st.Step(in); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("%s: Step allocates %v times, want 1 (its outputs)", name, allocs)
		}
	}
}
