package power

import (
	"context"
	"math"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// TestExactProbabilitiesDFSOrderFits guards the network build's default
// depth-first variable order: unbudgeted exact probabilities on the
// circuits whose declaration order blows up (radd16 peaks at 1.4M live
// nodes under it, cmp16 at 459k, mux16 at 132k) must peak below 20,000
// live nodes.
func TestExactProbabilitiesDFSOrderFits(t *testing.T) {
	defer obsv.Disable()
	for _, name := range []string{"radd16", "cmp16", "mux16"} {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		obsv.Disable()
		reg := obsv.Enable()
		if _, err := ExactProbabilities(context.Background(), nw, nil, bdd.Budget{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if peak := reg.Gauge("bdd.nodes").Value(); peak <= 0 || peak >= 20000 {
			t.Errorf("%s: unbudgeted exact build peaked at %v live nodes, want (0, 20000)", name, peak)
		}
	}
}

// TestExactProbabilitiesOrderInvariant checks that the variable order
// changes no probability at p = 0.5: every node's exact probability
// equals, bit for bit, the one a declaration-order build computes. With
// at most 53 inputs every such probability is a dyadic rational that a
// float64 holds exactly, whatever the evaluation order.
func TestExactProbabilitiesOrderInvariant(t *testing.T) {
	for _, name := range circuits.GeneratorNames() {
		if name == "radd16" {
			continue // 1.4M nodes in declaration order; the others cover it
		}
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nb, err := bdd.FromNetworkOpts(context.Background(), nw, bdd.BuildOptions{DeclarationOrder: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ids := make([]logic.NodeID, 0, len(nb.Fn))
		fs := make([]bdd.Ref, 0, len(nb.Fn))
		for id, f := range nb.Fn {
			ids = append(ids, id)
			fs = append(fs, f)
		}
		pv := make([]float64, nb.M.NumVars())
		for i := range pv {
			pv[i] = 0.5
		}
		if len(got) != len(ids) {
			t.Fatalf("%s: %d probabilities, want %d", name, len(got), len(ids))
		}
		for i, want := range nb.M.Probabilities(fs, pv) {
			if g, ok := got[ids[i]]; !ok || math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("%s node %d: probability %v, declaration order gives %v", name, ids[i], g, want)
			}
		}
	}
}
