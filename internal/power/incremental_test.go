package power

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/sim"
)

// incrCorpus builds the circuit generators plus seeded random DAGs the
// incremental-vs-full property is checked over.
func incrCorpus(t *testing.T) map[string]*logic.Network {
	t.Helper()
	out := make(map[string]*logic.Network)
	add := func(name string, nw *logic.Network, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = nw
	}
	nw, err := circuits.RippleAdder(4)
	add("radd4", nw, err)
	nw, err = circuits.CLAAdder(4)
	add("cla4", nw, err)
	nw, err = circuits.ArrayMultiplier(4)
	add("mult4", nw, err)
	nw, err = circuits.Comparator(6)
	add("cmp6", nw, err)
	nw, err = circuits.ParityTree(8)
	add("par8", nw, err)
	nw, err = circuits.Decoder(3)
	add("dec3", nw, err)
	nw, err = circuits.ALU(3)
	add("alu3", nw, err)
	nw, err = circuits.MuxTree(3)
	add("mux8", nw, err)
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		nw, err = circuits.RandomDAG(r, 3+r.Intn(4), 0, 25+r.Intn(25))
		add(fmt.Sprintf("dag%d", seed), nw, err)
	}
	return out
}

// mutate applies one random structural rewrite through the mutation API.
// The moves are chosen to exercise every kind of structural change — gate
// insertion (double negation), rewiring, output re-marking, deletion —
// without ever creating a combinational cycle (new fanins are primary
// inputs or fanins of the rewritten gate itself).
func mutate(t *testing.T, nw *logic.Network, r *rand.Rand, tag int) {
	t.Helper()
	gates := nw.Gates()
	if len(gates) == 0 {
		t.Fatal("network lost all gates")
	}
	id := gates[r.Intn(len(gates))]
	n := nw.Node(id)
	switch r.Intn(4) {
	case 0:
		// Function-preserving double negation of an And/Or gate.
		inv := logic.GateType(-1)
		switch n.Type {
		case logic.And:
			inv = logic.Nand
		case logic.Or:
			inv = logic.Nor
		}
		if inv < 0 || len(n.Fanin) < 2 {
			return
		}
		g, err := nw.AddGate(fmt.Sprintf("m%d_inv", tag), inv, n.Fanin...)
		if err != nil {
			t.Fatal(err)
		}
		nn, err := nw.AddGate(fmt.Sprintf("m%d_not", tag), logic.Not, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.ReplaceNode(id, nn); err != nil {
			t.Fatal(err)
		}
	case 1:
		// Rewire one fanin to a random primary input (acyclic by
		// construction; function-changing is fine — the property under
		// test is estimator equality, not equivalence).
		pis := nw.PIs()
		if err := nw.ReplaceFanin(id, n.Fanin[r.Intn(len(n.Fanin))], pis[r.Intn(len(pis))]); err != nil {
			t.Fatal(err)
		}
	case 2:
		// Toggle output role: mark a random gate as a primary output.
		if !nw.IsPO(id) {
			if err := nw.MarkOutput(id); err != nil {
				t.Fatal(err)
			}
		}
	case 3:
		// Delete a dangling gate if one exists (sweep-style shrink).
		for _, g := range gates {
			if len(nw.Node(g).Fanout()) == 0 && !nw.IsPO(g) {
				if err := nw.DeleteNode(g); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}
}

// fullReference recomputes everything from scratch on the current network
// with the one-shot estimators the incremental path claims bit-identity
// with.
func fullReference(t *testing.T, nw *logic.Network, p Params, cm CapModel, vecs [][]bool) (Probabilities, Report, Report, sim.Totals) {
	t.Helper()
	probs, err := PropagatedProbabilities(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	propRep := Evaluate(nw, p, cm, probs.Activity)
	packRep, tot, err := EstimateZeroDelayPacked(nw, p, cm, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return probs, propRep, packRep, tot
}

// TestIncrementalEstimatorMatchesFull is the bit-identity property test:
// random rewrite sequences over generator circuits and random DAGs, with
// every intermediate incremental measurement compared field-for-field
// (and probability-for-probability, exact float equality) against a
// from-scratch recomputation.
func TestIncrementalEstimatorMatchesFull(t *testing.T) {
	p := DefaultParams()
	cm := BufferWeightedCap(0.25)
	for name, nw := range incrCorpus(t) {
		r := rand.New(rand.NewSource(int64(len(name)) * 977))
		vecs := sim.RandomVectors(r, 200, len(nw.PIs()), 0.5)
		est := NewIncrementalEstimator(nw, p, cm, nil, vecs)

		first, err := est.Measure()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if first.Incremental {
			t.Fatalf("%s: first measurement claims to be incremental", name)
		}

		for step := 0; step < 12; step++ {
			mutate(t, nw, r, step)
			got, err := est.Measure()
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			probs, propRep, packRep, tot := fullReference(t, nw, p, cm, vecs)
			reportsEqual(t, fmt.Sprintf("%s step %d propagated", name, step), got.Propagated, propRep)
			reportsEqual(t, fmt.Sprintf("%s step %d packed", name, step), got.Packed, packRep)
			if got.Totals != tot {
				t.Fatalf("%s step %d: totals %+v, full %+v", name, step, got.Totals, tot)
			}
			for _, id := range nw.Live() {
				if est.probs[id] != probs[id] {
					t.Fatalf("%s step %d node %d: probability %v, full %v",
						name, step, id, est.probs[id], probs[id])
				}
			}
			if got.Incremental && got.ConeNodes+got.CleanNodes != len(mustOrder(t, nw)) {
				t.Fatalf("%s step %d: cone %d + clean %d != live comb %d",
					name, step, got.ConeNodes, got.CleanNodes, len(mustOrder(t, nw)))
			}
		}
	}
}

// reportsEqual demands exact (==, not approximate) equality of two power
// reports, including every per-node row — the "bit-identical" bar.
func reportsEqual(t *testing.T, label string, got, want Report) {
	t.Helper()
	if got.Switching != want.Switching || got.ShortCkt != want.ShortCkt || got.Leakage != want.Leakage {
		t.Fatalf("%s: totals {%v %v %v}, full {%v %v %v}", label,
			got.Switching, got.ShortCkt, got.Leakage,
			want.Switching, want.ShortCkt, want.Leakage)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d node rows, full %d", label, len(got.Nodes), len(want.Nodes))
	}
	for i := range got.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			t.Fatalf("%s: node row %d = %+v, full %+v", label, i, got.Nodes[i], want.Nodes[i])
		}
	}
}

func mustOrder(t *testing.T, nw *logic.Network) []logic.NodeID {
	t.Helper()
	order, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// TestIncrementalEstimatorFallbacks pins the full-recompute escapes: the
// explicit Invalidate hatch and a dirtied source.
func TestIncrementalEstimatorFallbacks(t *testing.T) {
	nw, err := circuits.CLAAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	vecs := sim.RandomVectors(r, 100, len(nw.PIs()), 0.5)
	p := DefaultParams()
	cm := BufferWeightedCap(0.25)
	est := NewIncrementalEstimator(nw, p, cm, nil, vecs)
	if _, err := est.Measure(); err != nil {
		t.Fatal(err)
	}

	mutate(t, nw, r, 0)
	res, err := est.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incremental {
		t.Fatal("clean local rewrite did not take the incremental path")
	}

	// The escape hatch forces a full recompute even with nothing dirty.
	est.Invalidate()
	res, err = est.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental {
		t.Fatal("Invalidate did not force a full recompute")
	}

	// Adding a primary input dirties a source: must fall back.
	pi, err := nw.AddInput("extra")
	if err != nil {
		t.Fatal(err)
	}
	g := nw.Gates()[0]
	if err := nw.ReplaceFanin(g, nw.Node(g).Fanin[0], pi); err != nil {
		t.Fatal(err)
	}
	vecs2 := sim.RandomVectors(r, 100, len(nw.PIs()), 0.5)
	est2 := NewIncrementalEstimator(nw, p, cm, nil, vecs2)
	if _, err := est2.Measure(); err != nil {
		t.Fatal(err)
	}
	// est (bound to the old vector width) must notice the source change
	// rather than splice garbage; its fallback then fails loudly on the
	// width mismatch instead of silently diverging.
	if _, err := est.Measure(); err == nil {
		t.Fatal("estimator spliced through a primary-input change")
	}

	// MaxConeFrac: a tiny bound forces full recomputes for any rewrite.
	est3 := NewIncrementalEstimator(nw, p, cm, nil, vecs2)
	est3.MaxConeFrac = 1e-9
	if _, err := est3.Measure(); err != nil {
		t.Fatal(err)
	}
	g2 := nw.Gates()[1]
	if err := nw.ReplaceFanin(g2, nw.Node(g2).Fanin[0], pi); err != nil {
		t.Fatal(err)
	}
	res, err = est3.Measure()
	if err != nil {
		t.Fatal(err)
	}
	if res.Incremental {
		t.Fatal("MaxConeFrac bound did not force a full recompute")
	}
}
