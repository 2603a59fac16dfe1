package circuits

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/logic"
)

// RandomUpload returns the BLIF text of a seeded random netlist shaped
// like an upload: 8 to maxPIs inputs, 20-160 two-input AND, OR, NAND,
// NOR, XOR and XNOR covers on 6-12 levels, fanins mostly from the level
// below, and every signal without fanout an output. A sequential one adds
// 4-8 latches, reset to 0, that load gates from the upper half.
func RandomUpload(r *rand.Rand, name string, maxPIs int, sequential bool) string {
	gates, pis, latches, levels := 20+r.Intn(141), 8+r.Intn(maxPIs-7), 0, 6+r.Intn(7)
	if sequential {
		latches = 4 + r.Intn(5)
	}
	covers := []string{"11 1\n", "1- 1\n-1 1\n", "0- 1\n-0 1\n", "00 1\n", "01 1\n10 1\n", "00 1\n11 1\n"}
	sig := make([]string, 0, pis+latches+gates)
	for i := 0; i < pis; i++ {
		sig = append(sig, fmt.Sprintf("i%d", i))
	}
	for i := 0; i < latches; i++ {
		sig = append(sig, fmt.Sprintf("q%d", i))
	}
	fanout := make([]int, cap(sig))
	// lo[l] is the first signal of level l; sources are level 0.
	lo := []int{0, len(sig)}
	pick := func() int {
		l := len(lo) - 2 // the level below the one being built
		if l > 0 && r.Intn(4) == 0 {
			l = r.Intn(l)
		}
		return lo[l] + r.Intn(lo[l+1]-lo[l])
	}
	var body strings.Builder
	for g := 0; g < gates; g++ {
		if g > 0 && g%((gates+levels-1)/levels) == 0 {
			lo = append(lo, len(sig))
		}
		a, b := pick(), pick()
		for b == a {
			b = r.Intn(len(sig))
		}
		fanout[a]++
		fanout[b]++
		fmt.Fprintf(&body, ".names %s %s g%d\n%s", sig[a], sig[b], g, covers[r.Intn(len(covers))])
		sig = append(sig, fmt.Sprintf("g%d", g))
	}
	first := pis + latches
	for i := 0; i < latches; i++ {
		d := first + gates/2 + r.Intn(gates-gates/2)
		fanout[d]++
		fmt.Fprintf(&body, ".latch %s q%d 0\n", sig[d], i)
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".model %s\n.inputs %s\n.outputs", name, strings.Join(sig[:pis], " "))
	for i := first; i < len(sig); i++ {
		if fanout[i] == 0 {
			b.WriteString(" " + sig[i])
		}
	}
	b.WriteString("\n" + body.String() + ".end\n")
	return b.String()
}

// RandomDAG returns a seeded random network over pis inputs, both
// constants, ffs flip-flops and gates gates of every type. A Buf or Not
// reads one signal; every other gate reads 2-4, drawn with repeats from
// every earlier signal. Each flip-flop has a random reset value and loads
// any signal, so flip-flop chains occur. Every gate without fanout is an
// output.
func RandomDAG(r *rand.Rand, pis, ffs, gates int) (*logic.Network, error) {
	nw := logic.New(fmt.Sprintf("dag%d_%d_%d", pis, ffs, gates))
	var pool []logic.NodeID
	for i := 0; i < pis; i++ {
		pool = append(pool, nw.MustInput(fmt.Sprintf("i%d", i)))
	}
	for i, v := range []bool{false, true} {
		c, err := nw.AddConst(fmt.Sprintf("k%d", i), v)
		if err != nil {
			return nil, err
		}
		pool = append(pool, c)
	}
	// Flip-flops load constant 0 until every signal exists.
	k0 := pool[pis]
	for i := 0; i < ffs; i++ {
		q, err := nw.AddDFF(fmt.Sprintf("q%d", i), k0, r.Intn(2) == 1)
		if err != nil {
			return nil, err
		}
		pool = append(pool, q)
	}
	types := []logic.GateType{logic.Buf, logic.Not, logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor}
	for g := 0; g < gates; g++ {
		t := types[r.Intn(len(types))]
		fanin := make([]logic.NodeID, 1)
		if t.MaxFanin() != 1 {
			fanin = make([]logic.NodeID, 2+r.Intn(3))
		}
		for j := range fanin {
			fanin[j] = pool[r.Intn(len(pool))]
		}
		pool = append(pool, nw.MustGate(fmt.Sprintf("g%d", g), t, fanin...))
	}
	for _, q := range nw.FFs() {
		if err := nw.ReplaceFanin(q, k0, pool[r.Intn(len(pool))]); err != nil {
			return nil, err
		}
	}
	for _, id := range nw.Gates() {
		if len(nw.Node(id).Fanout()) == 0 {
			if err := nw.MarkOutput(id); err != nil {
				return nil, err
			}
		}
	}
	return nw, nil
}
