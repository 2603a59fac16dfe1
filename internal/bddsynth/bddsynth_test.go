package bddsynth

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// smallNetworks returns every combinational generator circuit small
// enough for exhaustive truth-table comparison.
func smallNetworks(t *testing.T) map[string]*logic.Network {
	t.Helper()
	out := make(map[string]*logic.Network)
	for _, name := range circuits.GeneratorNames() {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(nw.FFs()) > 0 || len(nw.PIs()) > 14 {
			continue
		}
		out[name] = nw
	}
	if len(out) < 3 {
		t.Fatalf("only %d small combinational generators, want more coverage", len(out))
	}
	return out
}

func equalTables(a, b [][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestSynthesizeEquivalence forces the MUX rewrite onto every small
// generator circuit and checks the truth table is bit-identical.
func TestSynthesizeEquivalence(t *testing.T) {
	for name, nw := range smallNetworks(t) {
		want, err := nw.TruthTable()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Synthesize(context.Background(), nw, Options{KeepWorse: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Skipped || !res.Applied {
			t.Fatalf("%s: rewrite not applied (skipped=%v reason=%q)", name, res.Skipped, res.Reason)
		}
		if res.MuxGates <= 0 || res.BDDNodes <= 0 {
			t.Fatalf("%s: implausible stats %+v", name, res)
		}
		got, err := nw.TruthTable()
		if err != nil {
			t.Fatalf("%s: rewritten network: %v", name, err)
		}
		if !equalTables(want, got) {
			t.Fatalf("%s: MUX netlist is not functionally equivalent", name)
		}
		if err := nw.Check(); err != nil {
			t.Fatalf("%s: rewritten network fails Check: %v", name, err)
		}
	}
}

// TestSynthesizeAppliesOnlyWhenBetter pins the accept rule: without
// KeepWorse, Applied must equal (After < Before), and the live network
// must be untouched when the candidate loses.
func TestSynthesizeAppliesOnlyWhenBetter(t *testing.T) {
	for name, nw := range smallNetworks(t) {
		before := nw.Clone()
		res, err := Synthesize(context.Background(), nw, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Applied != (res.After < res.Before) {
			t.Fatalf("%s: Applied=%v but After=%v Before=%v", name, res.Applied, res.After, res.Before)
		}
		if !res.Applied && nw.NumGates() != before.NumGates() {
			t.Fatalf("%s: rejected rewrite still mutated the network (%d -> %d gates)",
				name, before.NumGates(), nw.NumGates())
		}
	}
}

// TestSynthesizeSkipsSequential checks flip-flop networks are a skipped
// no-op, never an error.
func TestSynthesizeSkipsSequential(t *testing.T) {
	nw := logic.New("seq")
	a := nw.MustInput("a")
	g := nw.MustGate("g", logic.Not, a)
	q, err := nw.AddDFF("q", g, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(q); err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(context.Background(), nw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped || !strings.Contains(res.Reason, "sequential") {
		t.Fatalf("sequential network not skipped: %+v", res)
	}
}

// TestSynthesizeBudgetSkipIsNoOp checks a budget trip leaves the
// network untouched and reports Skipped instead of erroring.
func TestSynthesizeBudgetSkipIsNoOp(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	gates := nw.NumGates()
	// mult6 needs thousands of nodes even from the depth-first order with
	// sifting, so this budget trips.
	res, err := Synthesize(context.Background(), nw, Options{
		Budget: bdd.Budget{MaxNodes: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped || !strings.Contains(res.Reason, "budget") {
		t.Fatalf("budget trip not reported as skip: %+v", res)
	}
	if nw.NumGates() != gates {
		t.Fatalf("skipped synthesis mutated the network: %d -> %d gates", gates, nw.NumGates())
	}
}

// TestSynthesizeDeterministic checks two runs from identical inputs
// produce identical stats and netlists (server responses are cached).
func TestSynthesizeDeterministic(t *testing.T) {
	mk := func() *logic.Network {
		nw, err := circuits.Comparator(10)
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	n1, n2 := mk(), mk()
	r1, err := Synthesize(context.Background(), n1, Options{KeepWorse: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Synthesize(context.Background(), n2, Options{KeepWorse: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.MuxGates != r2.MuxGates || r1.BDDNodes != r2.BDDNodes || r1.After != r2.After {
		t.Fatalf("nondeterministic synthesis: %+v vs %+v", r1, r2)
	}
	if len(r1.Order) != len(r2.Order) {
		t.Fatal("order length differs")
	}
	for i := range r1.Order {
		if r1.Order[i] != r2.Order[i] {
			t.Fatalf("order differs at %d: %v vs %v", i, r1.Order, r2.Order)
		}
	}
	if n1.NumGates() != n2.NumGates() {
		t.Fatalf("gate counts differ: %d vs %d", n1.NumGates(), n2.NumGates())
	}
}

// TestSynthesizeBuildsOnce pins one build per call: an applied rewrite
// runs exactly the sifting of one lone depth-first build, and the applied
// network is that build emitted into a fresh clone. mult6 sifts several
// times from the depth-first order, so the count comparison has teeth.
func TestSynthesizeBuildsOnce(t *testing.T) {
	runs := obsv.Enable().Counter("bdd.reorder.runs")
	nw, err := circuits.ArrayMultiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	start := runs.Value()
	nb, err := bdd.FromNetworkOpts(context.Background(), nw, bdd.BuildOptions{
		Budget:  bdd.Budget{MaxNodes: 1 << 20},
		Reorder: bdd.ReorderPolicy{Enable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	lone := runs.Value() - start
	if lone == 0 {
		t.Fatal("the lone build never sifted")
	}
	want := nw.Clone()
	if _, err := emitMux(want, nb); err != nil {
		t.Fatal(err)
	}

	start = runs.Value()
	res, err := Synthesize(context.Background(), nw, Options{KeepWorse: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatalf("KeepWorse rewrite not applied: %+v", res)
	}
	if got := runs.Value() - start; got != lone {
		t.Fatalf("Synthesize ran %d reorders, one build runs %d", got, lone)
	}
	if got, w := logic.StructuralHash(nw), logic.StructuralHash(want); got != w {
		t.Fatal("applied network differs from one build emitted into a clone")
	}
}
