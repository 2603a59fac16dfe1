package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// rewritePass builds an ExtraPasses entry that applies one deterministic
// function-preserving double-negation rewrite (And/Or gate g becomes
// Not(Nand/Nor over g's fanins)) — the canonical "local rewrite" the
// incremental path is designed around.
func rewritePass(name string, seed int64) Pass {
	return Pass{
		Name: name, Level: "logic",
		Description: "function-preserving double-negation rewrite (test/bench)",
		Run: func(nw *logic.Network, ctx *Context) error {
			r := rand.New(rand.NewSource(seed))
			var cands []logic.NodeID
			for _, id := range nw.Gates() {
				n := nw.Node(id)
				if (n.Type == logic.And || n.Type == logic.Or) && len(n.Fanin) >= 2 {
					cands = append(cands, id)
				}
			}
			if len(cands) == 0 {
				return nil
			}
			id := cands[r.Intn(len(cands))]
			n := nw.Node(id)
			inv := logic.Nand
			if n.Type == logic.Or {
				inv = logic.Nor
			}
			g, err := nw.AddGate(name+"_inv", inv, n.Fanin...)
			if err != nil {
				return err
			}
			nn, err := nw.AddGate(name+"_not", logic.Not, g)
			if err != nil {
				return err
			}
			return nw.ReplaceNode(id, nn)
		},
	}
}

// rewriteFlow returns a context carrying n rewrite passes and the flow
// that runs them.
func rewriteFlow(nw *logic.Network, seed int64, n int) (*Context, Flow) {
	fctx := NewContext(nw, seed)
	fctx.ExtraPasses = map[string]Pass{}
	flow := Flow{Name: "rewrite"}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rw%d", i)
		fctx.ExtraPasses[name] = rewritePass(name, seed+int64(i))
		flow.Passes = append(flow.Passes, name)
	}
	return fctx, flow
}

// TestFlowIncrementalBitIdentical is the flow-level half of the
// incremental-vs-full contract: on every circuit generator and 20 seeded
// random netlists, the standard flows, every registered pass run alone
// and a randomized rewrite sequence produce byte-identical trajectories
// whether measurements splice into the baseline or recompute from
// scratch (FullRecompute) at every step.
func TestFlowIncrementalBitIdentical(t *testing.T) {
	gens := map[string]func() (*logic.Network, error){
		"radd4": func() (*logic.Network, error) { return circuits.RippleAdder(4) },
		"cla4":  func() (*logic.Network, error) { return circuits.CLAAdder(4) },
		"mult4": func() (*logic.Network, error) { return circuits.ArrayMultiplier(4) },
		"cmp4":  func() (*logic.Network, error) { return circuits.Comparator(4) },
		"par8":  func() (*logic.Network, error) { return circuits.ParityTree(8) },
		"dec3":  func() (*logic.Network, error) { return circuits.Decoder(3) },
		"alu3":  func() (*logic.Network, error) { return circuits.ALU(3) },
		"mux8":  func() (*logic.Network, error) { return circuits.MuxTree(3) },
	}
	for seed := int64(1); seed <= 20; seed++ {
		gens[fmt.Sprintf("rand%d", seed)] = func() (*logic.Network, error) {
			r := rand.New(rand.NewSource(seed))
			return circuits.RandomDAG(r, 8+r.Intn(17), 0, 20+r.Intn(141))
		}
	}
	flows := StandardFlows()
	for _, name := range PassNames() {
		flows["pass-"+name] = Flow{Name: name, Passes: []string{name}}
	}
	for gname, gen := range gens {
		for fname, flow := range flows {
			compareIncrementalFull(t, gname+"/"+fname, gen, func(nw *logic.Network) (*Context, Flow) {
				return NewContext(nw, 42), flow
			})
		}
		// Randomized rewrite sequence via ExtraPasses.
		compareIncrementalFull(t, gname+"/rewrite", gen, func(nw *logic.Network) (*Context, Flow) {
			return rewriteFlow(nw, int64(len(gname)), 8)
		})
	}
}

// TestFlowIncrementalSeesDirectWrites: a pass that writes a Node field
// directly, bypassing the mutation APIs, still gets an incremental
// trajectory identical to recomputing from scratch, because the estimator
// compares node fields rather than trusting the APIs to report changes.
// In every measurement mode the final snapshot is what a fresh clone of
// the result measures: the flow's Check drops the view compiled before
// the write.
func TestFlowIncrementalSeesDirectWrites(t *testing.T) {
	bypass := Pass{
		Name: "bypass", Level: "logic",
		Description: "direct field write (test)",
		Run: func(nw *logic.Network, ctx *Context) error {
			g := nw.Gates()[0]
			nw.Node(g).Type = logic.And // bypasses the mutation API
			return nil
		},
	}
	gen := func() (*logic.Network, error) { return circuits.ParityTree(4) }
	setup := func(nw *logic.Network) (*Context, Flow) {
		fctx := NewContext(nw, 1)
		fctx.Verify = false // the bypass changes function; that is not the point here
		fctx.ExtraPasses = map[string]Pass{"bypass": bypass}
		return fctx, Flow{Name: "bypass", Passes: []string{"bypass"}}
	}
	compareIncrementalFull(t, "par4/bypass", gen, setup)
	for _, mode := range []struct{ incremental, full bool }{{false, false}, {true, false}, {true, true}} {
		nw, _ := circuits.ParityTree(4)
		fctx, flow := setup(nw)
		fctx.Incremental, fctx.FullRecompute = mode.incremental, mode.full
		rep, err := RunFlow(nw, flow, fctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MeasureCtx(context.Background(), nw.Clone(), fctx, "bypass")
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Final(); got != want {
			t.Errorf("%+v: final snapshot %+v, a fresh clone measures %+v", mode, got, want)
		}
	}
}

// compareIncrementalFull runs the flow that setup returns twice on fresh
// networks from gen, incrementally and with FullRecompute, and demands
// identical trajectories.
func compareIncrementalFull(t *testing.T, label string, gen func() (*logic.Network, error), setup func(*logic.Network) (*Context, Flow)) {
	t.Helper()
	var reps [2]*FlowReport
	for i := range reps {
		nw, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		fctx, flow := setup(nw)
		fctx.Incremental = true
		fctx.FullRecompute = i == 1
		if reps[i], err = RunFlow(nw, flow, fctx); err != nil {
			t.Fatalf("%s (full recompute %t): %v", label, fctx.FullRecompute, err)
		}
	}
	compareTrajectories(t, label, reps[0], reps[1])
}

// compareTrajectories demands exact snapshot equality step by step, plus
// byte-identical rendered reports (the form servers and CLIs emit).
func compareTrajectories(t *testing.T, label string, a, b *FlowReport) {
	t.Helper()
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("%s: %d steps incremental, %d full", label, len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		if a.Steps[i] != b.Steps[i] {
			t.Fatalf("%s step %d: incremental %+v, full %+v", label, i, a.Steps[i], b.Steps[i])
		}
	}
	sa, sb := a.String(), b.String()
	if sa != sb {
		t.Fatalf("%s: rendered trajectories differ:\n%s\nvs\n%s", label, sa, sb)
	}
}

// TestMeasureIncrementalSequentialFallback: sequential networks ignore
// the Incremental flag and take the classic measurement path.
func TestMeasureIncrementalSequentialFallback(t *testing.T) {
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
	classic := NewContext(nw, 3)
	sc, err := MeasureCtx(context.Background(), nw, classic, "x")
	if err != nil {
		t.Fatal(err)
	}
	incr := NewContext(nw, 3)
	incr.Incremental = true
	si, err := MeasureCtx(context.Background(), nw, incr, "x")
	if err != nil {
		t.Fatal(err)
	}
	if sc != si {
		t.Fatalf("sequential fallback diverged: classic %+v, incremental-flagged %+v", sc, si)
	}
}
