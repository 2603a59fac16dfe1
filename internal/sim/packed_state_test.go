package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// TestPackedInterleavedRunResetMatchesFresh pins the seam the incremental
// path relies on: after any history of Run calls, Reset makes the next
// Run's counts and totals identical to a brand-new simulator's — the
// counters and the carried comparison lane are both re-based.
func TestPackedInterleavedRunResetMatchesFresh(t *testing.T) {
	nw, err := circuits.ALU(3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	ps, err := NewPacked(nw)
	if err != nil {
		t.Fatal(err)
	}
	// Segments of varied length: full blocks, partial blocks, single
	// vectors — each preceded by leftover state from the previous one.
	for seg, n := range []int{64, 37, 1, 200, 65} {
		vecs := RandomVectors(r, n, len(nw.PIs()), 0.5)
		ps.Reset()
		tot, err := ps.Run(vecs)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPacked(nw)
		if err != nil {
			t.Fatal(err)
		}
		ftot, err := fresh.Run(vecs)
		if err != nil {
			t.Fatal(err)
		}
		if tot != ftot {
			t.Fatalf("segment %d: interleaved totals %+v, fresh %+v", seg, tot, ftot)
		}
		for _, id := range nw.Live() {
			if ps.Transitions(id) != fresh.Transitions(id) {
				t.Fatalf("segment %d node %d: interleaved %d, fresh %d",
					seg, id, ps.Transitions(id), fresh.Transitions(id))
			}
		}
	}
}

// TestRunCaptureMatchesRun: capture is a pure recording — totals and
// per-node counts equal an uninstrumented Run, and the captured state's
// counters agree with the simulator's.
func TestRunCaptureMatchesRun(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	vecs := RandomStimulus(r, 130, len(nw.PIs()), 0.5)

	plain, err := NewPacked(nw)
	if err != nil {
		t.Fatal(err)
	}
	ptot, err := plain.RunStimulus(vecs)
	if err != nil {
		t.Fatal(err)
	}

	cap, err := NewPacked(nw)
	if err != nil {
		t.Fatal(err)
	}
	// Pollute with an unrelated run first: RunCapture must self-Reset.
	if _, err := cap.Run(RandomVectors(r, 50, len(nw.PIs()), 0.5)); err != nil {
		t.Fatal(err)
	}
	var st PackedState
	ctot, err := cap.RunCapture(vecs, &st)
	if err != nil {
		t.Fatal(err)
	}
	if ptot != ctot {
		t.Fatalf("capture totals %+v, plain %+v", ctot, ptot)
	}
	if st.Cycles != vecs.Len() || st.GateTransitions != ptot.Transitions {
		t.Fatalf("state cycles=%d gateTransitions=%d, want %d/%d",
			st.Cycles, st.GateTransitions, vecs.Len(), ptot.Transitions)
	}
	if want := (vecs.Len() + 63) / 64; len(st.Blocks) != want || len(st.Lanes) != want {
		t.Fatalf("state has %d blocks/%d lanes, want %d", len(st.Blocks), len(st.Lanes), want)
	}
	for _, id := range nw.Live() {
		if st.Trans[id] != plain.Transitions(id) {
			t.Fatalf("node %d: state %d, plain %d", id, st.Trans[id], plain.Transitions(id))
		}
	}
}

// rewriteOneGate applies a function-preserving local rewrite: a randomly
// chosen multi-input And/Or gate g is replaced by Not(Nand(fanins)) /
// Not(Nor-dual) built from fresh nodes, exercising addNode, ReplaceNode
// and DeleteNode. Returns false if no candidate exists.
func rewriteOneGate(nw *logic.Network, r *rand.Rand, tag int) (bool, error) {
	var cands []logic.NodeID
	for _, id := range nw.Gates() {
		n := nw.Node(id)
		if (n.Type == logic.And || n.Type == logic.Or) && len(n.Fanin) >= 2 {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return false, nil
	}
	id := cands[r.Intn(len(cands))]
	n := nw.Node(id)
	inv := logic.Nand
	if n.Type == logic.Or {
		inv = logic.Nor
	}
	g, err := nw.AddGate(fmt.Sprintf("rw%d_inv", tag), inv, n.Fanin...)
	if err != nil {
		return false, err
	}
	nn, err := nw.AddGate(fmt.Sprintf("rw%d_not", tag), logic.Not, g)
	if err != nil {
		return false, err
	}
	return true, nw.ReplaceNode(id, nn)
}

// TestUpdateConeMatchesFullRerun drives random function-preserving
// rewrites over generator circuits and random DAGs, after each one
// updating the captured state through the cone of the changed nodes and
// comparing every per-node count, the reset baseline, every value word,
// and the aggregate against a from-scratch capture on the mutated
// network. This is the
// packed half of the incremental-vs-full bit-identity contract.
func TestUpdateConeMatchesFullRerun(t *testing.T) {
	corpus := generatorCorpus(t)
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		nw, err := circuits.RandomDAG(r, 2+r.Intn(5), 0, 5+r.Intn(40))
		if err != nil {
			t.Fatal(err)
		}
		corpus[fmt.Sprintf("rand%d", seed)] = nw
	}
	for name, nw := range corpus {
		r := rand.New(rand.NewSource(int64(len(name)) * 31))
		vecs := RandomStimulus(r, 130, len(nw.PIs()), 0.5)

		ps, err := NewPacked(nw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var st PackedState
		if _, err := ps.RunCapture(vecs, &st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var sh logic.Shape
		sh.Update(nw)

		for step := 0; step < 6; step++ {
			ok, err := rewriteOneGate(nw, r, step)
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			if !ok {
				break
			}
			cone, err := nw.DirtyCone(sh.Update(nw))
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			if len(cone.Sources) != 0 {
				t.Fatalf("%s step %d: local rewrite dirtied sources %v", name, step, cone.Sources)
			}
			if err := st.UpdateCone(nw, cone); err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}

			full, err := NewPacked(nw)
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			var ref PackedState
			ftot, err := full.RunCapture(vecs, &ref)
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			if st.GateTransitions != ftot.Transitions {
				t.Fatalf("%s step %d: incremental aggregate %d, full %d",
					name, step, st.GateTransitions, ftot.Transitions)
			}
			if st.Cycles != ref.Cycles {
				t.Fatalf("%s step %d: cycles %d vs %d", name, step, st.Cycles, ref.Cycles)
			}
			for _, id := range nw.Live() {
				if st.Trans[id] != ref.Trans[id] {
					t.Fatalf("%s step %d node %d: incremental %d, full %d",
						name, step, id, st.Trans[id], ref.Trans[id])
				}
				if st.Reset[id] != ref.Reset[id] {
					t.Fatalf("%s step %d node %d: reset bit diverged", name, step, id)
				}
				for b := range ref.Blocks {
					if st.Blocks[b][id] != ref.Blocks[b][id] {
						t.Fatalf("%s step %d node %d block %d: value words diverged",
							name, step, id, b)
					}
				}
			}
		}
	}
}
