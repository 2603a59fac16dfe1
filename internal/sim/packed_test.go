package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// scalarZeroDelayCounts is the reference implementation the packed engine
// must match: settle every vector with the scalar evaluator and count,
// per node, the cycles whose settled value differs from the previous one
// (the first cycle compares against the all-zero reset settle).
func scalarZeroDelayCounts(t *testing.T, nw *logic.Network, vectors [][]bool) []int64 {
	t.Helper()
	order, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	val := make([]bool, nw.NumNodes())
	settle := func() {
		var buf []bool
		for _, id := range order {
			n := nw.Node(id)
			switch n.Type {
			case logic.Const0:
				val[id] = false
			case logic.Const1:
				val[id] = true
			default:
				buf = buf[:0]
				for _, f := range n.Fanin {
					buf = append(buf, val[f])
				}
				val[id] = logic.EvalGate(n.Type, buf)
			}
		}
	}
	settle() // all-zero reset baseline
	prev := append([]bool(nil), val...)
	counts := make([]int64, nw.NumNodes())
	for _, v := range vectors {
		for i, pi := range nw.PIs() {
			val[pi] = v[i]
		}
		settle()
		for _, id := range order {
			if val[id] != prev[id] {
				counts[id]++
			}
		}
		copy(prev, val)
	}
	return counts
}

// generatorCorpus builds every internal/circuits generator at a small and
// a medium size.
func generatorCorpus(t *testing.T) map[string]*logic.Network {
	t.Helper()
	out := make(map[string]*logic.Network)
	add := func(name string, nw *logic.Network, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = nw
	}
	for _, n := range []int{2, 4} {
		nw, err := circuits.RippleAdder(n)
		add(fmt.Sprintf("radd%d", n), nw, err)
	}
	for _, n := range []int{4, 8} {
		nw, err := circuits.CLAAdder(n)
		add(fmt.Sprintf("cla%d", n), nw, err)
	}
	for _, n := range []int{3, 5} {
		nw, err := circuits.ArrayMultiplier(n)
		add(fmt.Sprintf("mult%d", n), nw, err)
	}
	for _, n := range []int{4, 8} {
		nw, err := circuits.Comparator(n)
		add(fmt.Sprintf("cmp%d", n), nw, err)
	}
	for _, n := range []int{8, 16} {
		nw, err := circuits.ParityTree(n)
		add(fmt.Sprintf("par%d", n), nw, err)
	}
	{
		nw, err := circuits.ParityChain(12)
		add("parch12", nw, err)
	}
	{
		nw, err := circuits.Decoder(4)
		add("dec4", nw, err)
	}
	for _, n := range []int{3, 4} {
		nw, err := circuits.ALU(n)
		add(fmt.Sprintf("alu%d", n), nw, err)
	}
	{
		nw, err := circuits.MuxTree(3)
		add("mux8", nw, err)
	}
	return out
}

// TestPackedMatchesScalarOnGenerators checks the exact-equivalence
// contract on every circuit generator: packed per-node transition counts
// equal both the scalar zero-delay reference and the event-driven
// simulator's useful (zero-delay) counts, and the Totals agree.
func TestPackedMatchesScalarOnGenerators(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for name, nw := range generatorCorpus(t) {
		// 130 vectors: two full 64-lane blocks plus a partial block, so
		// the carry hand-off and the partial-lane mask are both on trial.
		vecs := RandomVectors(r, 130, len(nw.PIs()), 0.5)

		ps, err := NewPacked(nw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ptot, err := ps.Run(vecs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		ref := scalarZeroDelayCounts(t, nw, vecs)

		s, err := New(nw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stot, err := s.Run(mustPack(t, vecs))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		for _, id := range nw.Live() {
			n := nw.Node(id)
			if n.Type == logic.Input {
				continue
			}
			if got, want := ps.Transitions(id), ref[id]; got != want {
				t.Errorf("%s node %q: packed %d, scalar reference %d", name, n.Name, got, want)
			}
			if got, want := ps.Transitions(id), s.UsefulTransitions(id); got != want {
				t.Errorf("%s node %q: packed %d, event-driven useful %d", name, n.Name, got, want)
			}
		}
		if ptot.Useful != stot.Useful || ptot.Transitions != stot.Useful {
			t.Errorf("%s: packed totals %+v, event-driven useful %d", name, ptot, stot.Useful)
		}
		if ptot.Spurious != 0 {
			t.Errorf("%s: packed reported %d spurious transitions under zero delay", name, ptot.Spurious)
		}
		if ptot.Cycles != len(vecs) || ps.Cycles() != len(vecs) {
			t.Errorf("%s: packed cycles %d/%d, want %d", name, ptot.Cycles, ps.Cycles(), len(vecs))
		}
	}
}

// randomNetwork builds a seeded random combinational DAG exercising every
// gate type and fanin shape the packed evaluator supports.
func randomNetwork(seed int64) (*logic.Network, error) {
	r := rand.New(rand.NewSource(seed))
	nw := logic.New(fmt.Sprintf("rand%d", seed))
	var pool []logic.NodeID
	nIn := 2 + r.Intn(5)
	for i := 0; i < nIn; i++ {
		pool = append(pool, nw.MustInput(fmt.Sprintf("i%d", i)))
	}
	if r.Intn(2) == 0 {
		c, err := nw.AddConst("c0", r.Intn(2) == 1)
		if err != nil {
			return nil, err
		}
		pool = append(pool, c)
	}
	types := []logic.GateType{
		logic.Buf, logic.Not, logic.And, logic.Or,
		logic.Nand, logic.Nor, logic.Xor, logic.Xnor,
	}
	nGates := 5 + r.Intn(40)
	for g := 0; g < nGates; g++ {
		ty := types[r.Intn(len(types))]
		k := 1
		if ty.MinFanin() >= 2 {
			k = 2 + r.Intn(3)
		}
		fanin := make([]logic.NodeID, k)
		for i := range fanin {
			fanin[i] = pool[r.Intn(len(pool))]
		}
		id, err := nw.AddGate(fmt.Sprintf("g%d", g), ty, fanin...)
		if err != nil {
			return nil, err
		}
		pool = append(pool, id)
	}
	// Mark a few sinks so the network has outputs (the simulators do not
	// care, but Check does).
	for i := 0; i < 2; i++ {
		if err := nw.MarkOutput(pool[len(pool)-1-i]); err != nil {
			return nil, err
		}
	}
	return nw, nil
}

// TestPackedQuickRandomNetworks is the randomized-network property test:
// for arbitrary seeds, the packed engine and the scalar zero-delay
// reference agree on every node's transition count.
func TestPackedQuickRandomNetworks(t *testing.T) {
	prop := func(seed int64, nVec uint8) bool {
		nw, err := randomNetwork(seed)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		vecs := RandomVectors(r, 1+int(nVec), len(nw.PIs()), 0.5)
		ps, err := NewPacked(nw)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if _, err := ps.Run(vecs); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ref := scalarZeroDelayCounts(t, nw, vecs)
		for _, id := range nw.Live() {
			if nw.Node(id).Type == logic.Input {
				continue
			}
			if ps.Transitions(id) != ref[id] {
				t.Logf("seed %d node %d: packed %d, reference %d", seed, id, ps.Transitions(id), ref[id])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedRejectsSequential(t *testing.T) {
	nw := logic.New("seq")
	in := nw.MustInput("a")
	q, err := nw.AddDFF("q", in, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(q); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPacked(nw); err == nil {
		t.Fatal("NewPacked accepted a sequential network")
	}
}

func TestPackedInputWidthValidation(t *testing.T) {
	nw, err := circuits.RippleAdder(2)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPacked(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Run([][]bool{make([]bool, 1)}); err == nil {
		t.Fatal("packed Run accepted a mis-sized vector")
	}
}

// TestPackedResetAndAccumulation checks that counts accumulate across Run
// calls exactly like one concatenated stream, and that Reset restores the
// all-zero baseline.
func TestPackedResetAndAccumulation(t *testing.T) {
	nw, err := circuits.CLAAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	vecs := RandomVectors(r, 100, len(nw.PIs()), 0.5)

	whole, err := NewPacked(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := whole.Run(vecs); err != nil {
		t.Fatal(err)
	}

	split, err := NewPacked(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := split.Run(vecs[:37]); err != nil {
		t.Fatal(err)
	}
	if _, err := split.Run(vecs[37:]); err != nil {
		t.Fatal(err)
	}
	for _, id := range nw.Live() {
		if whole.Transitions(id) != split.Transitions(id) {
			t.Fatalf("node %d: whole %d, split %d", id, whole.Transitions(id), split.Transitions(id))
		}
	}

	split.Reset()
	if split.Cycles() != 0 {
		t.Fatalf("Reset left %d cycles", split.Cycles())
	}
	if _, err := split.Run(vecs); err != nil {
		t.Fatal(err)
	}
	for _, id := range nw.Live() {
		if whole.Transitions(id) != split.Transitions(id) {
			t.Fatalf("after Reset, node %d: whole %d, rerun %d", id, whole.Transitions(id), split.Transitions(id))
		}
	}
}
