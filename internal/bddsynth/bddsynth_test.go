package bddsynth

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/obsv/trace"
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
	// mult6 needs thousands of nodes from the depth-first order, plain
	// or with dynamic sifting, so both builds trip this budget.
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

// TestSynthesizeBuildsOnce pins the build shape of a call whose build
// reaches the dynamic-reordering trigger: one plain depth-first build
// (one bdd.build span, not a reordering one) and one output-only sift
// (one bdd.reorder.runs increment) on mult6, whose 13,795-node build
// crosses the 4,096-node trigger. The applied network is that build,
// output-sifted, emitted into a fresh clone.
func TestSynthesizeBuildsOnce(t *testing.T) {
	runs := obsv.Enable().Counter("bdd.reorder.runs")
	nw, err := circuits.ArrayMultiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := bdd.FromNetworkCtx(context.Background(), nw, bdd.Budget{MaxNodes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if sifted, err := nb.SiftOutputs(nw.POs()); err != nil || !sifted {
		t.Fatalf("SiftOutputs = %v, %v; mult6 must reach the trigger", sifted, err)
	}
	want := nw.Clone()
	if _, err := emitMux(want, nb); err != nil {
		t.Fatal(err)
	}

	ctx, root := trace.New(context.Background(), "synthesize")
	start := runs.Value()
	res, err := Synthesize(ctx, nw, Options{KeepWorse: true})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if !res.Applied {
		t.Fatalf("KeepWorse rewrite not applied: %+v", res)
	}
	if got := runs.Value() - start; got != 1 {
		t.Fatalf("Synthesize ran %d reorders, want the one output sift", got)
	}
	builds := 0
	for _, sd := range root.Tracer().Snapshot() {
		if sd.Name != "bdd.build" {
			continue
		}
		builds++
		if _, dyn := sd.Attrs["reorder"]; dyn {
			t.Fatal("Synthesize ran a dynamic-reordering build")
		}
	}
	if builds != 1 {
		t.Fatalf("Synthesize ran %d builds, want 1", builds)
	}
	if got, w := logic.StructuralHash(nw), logic.StructuralHash(want); got != w {
		t.Fatal("applied network differs from the output-sifted build emitted into a clone")
	}
}

// dynamicResult is the reference the pass is held to where its plain
// build trips the budget or stays below the trigger: Apply on a dynamic
// sifting build, which pins every gate's function, emitted into a clone
// of nw. It returns the result, the rewritten clone and the reorders the
// build ran.
func dynamicResult(t *testing.T, nw *logic.Network, opt Options) (*Result, *logic.Network, int64) {
	t.Helper()
	runs := obsv.Enable().Counter("bdd.reorder.runs")
	ref := nw.Clone()
	start := runs.Value()
	nb, err := bdd.FromNetworkOpts(context.Background(), ref, bdd.BuildOptions{
		Budget:  opt.Budget,
		Reorder: bdd.ReorderPolicy{Enable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	sifts := runs.Value() - start
	res, err := Apply(context.Background(), ref, nb, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, ref, sifts
}

// sameRewrite fails unless Synthesize on a clone of nw returns want and
// leaves the clone structurally equal to ref.
func sameRewrite(t *testing.T, name string, nw *logic.Network, opt Options, want *Result, ref *logic.Network) {
	t.Helper()
	got := nw.Clone()
	res, err := Synthesize(context.Background(), got, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("%s: Synthesize %+v, dynamic build %+v", name, res, want)
	}
	if logic.StructuralHash(got) != logic.StructuralHash(ref) {
		t.Fatalf("%s: applied netlist differs from the dynamic build's", name)
	}
}

// TestSynthesizeBelowTriggerMatchesDynamicBuild: on every generator whose
// build stays below the reordering trigger, which the dynamic build shows
// by never sifting, the pass keeps the order, the stats and the netlist
// of the dynamic-reordering build it replaced.
func TestSynthesizeBelowTriggerMatchesDynamicBuild(t *testing.T) {
	opt := Options{Budget: bdd.Budget{MaxNodes: 1 << 20}, KeepWorse: true}
	compared := 0
	for _, name := range circuits.GeneratorNames() {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(nw.FFs()) > 0 {
			continue
		}
		want, ref, sifts := dynamicResult(t, nw, opt)
		if sifts > 0 {
			continue // above the trigger: the output sift differs on purpose
		}
		sameRewrite(t, name, nw, opt, want, ref)
		compared++
	}
	if compared < len(circuits.GeneratorNames())-1 {
		t.Fatalf("compared %d generators; only mult6 should reach the trigger", compared)
	}
}

// TestSynthesizeFallbackMatchesDynamicBuild: a 10,000-node budget trips
// mult6's plain 13,795-node build but admits the dynamic-reordering
// build, so the pass falls back to that build and returns what it
// returned before the plain build was tried.
func TestSynthesizeFallbackMatchesDynamicBuild(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Budget: bdd.Budget{MaxNodes: 10000}, KeepWorse: true}
	if _, err := bdd.FromNetworkCtx(context.Background(), nw, opt.Budget); !errors.Is(err, bdd.ErrBudgetExceeded) {
		t.Fatalf("plain build under %d nodes: err = %v, want a trip", opt.Budget.MaxNodes, err)
	}
	want, ref, _ := dynamicResult(t, nw, opt)
	sameRewrite(t, "mult6", nw, opt, want, ref)
}

// TestSynthesizeOutputSiftEquivalent: the MUX netlist of mult6's
// output-sifted build computes mult6.
func TestSynthesizeOutputSiftEquivalent(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := logic.NewReference(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(context.Background(), nw, Options{KeepWorse: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatalf("KeepWorse rewrite not applied: %+v", res)
	}
	if ok, err := ref.Equivalent(nw); err != nil || !ok {
		t.Fatalf("output-sifted MUX netlist not equivalent to mult6: %v, %v", ok, err)
	}
}
