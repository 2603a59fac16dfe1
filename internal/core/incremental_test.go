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
// incremental-vs-full contract: on every circuit generator, both the
// standard flows and a randomized rewrite sequence produce byte-identical
// trajectories whether measurements splice into the baseline or recompute
// from scratch (FullRecompute) at every step.
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
	flows := StandardFlows()
	for gname, gen := range gens {
		for fname, flow := range flows {
			nwA, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			nwB := nwA.Clone()

			ctxA := NewContext(nwA, 42)
			ctxA.Incremental = true
			ctxA.DirtyAudit = true
			repA, err := RunFlow(nwA, flow, ctxA)
			if err != nil {
				t.Fatalf("%s/%s incremental: %v", gname, fname, err)
			}

			ctxB := NewContext(nwB, 42)
			ctxB.Incremental = true
			ctxB.FullRecompute = true
			repB, err := RunFlow(nwB, flow, ctxB)
			if err != nil {
				t.Fatalf("%s/%s full: %v", gname, fname, err)
			}

			compareTrajectories(t, gname+"/"+fname, repA, repB)
		}

		// Randomized rewrite sequence via ExtraPasses.
		nwA, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		nwB := nwA.Clone()
		ctxA, flow := rewriteFlow(nwA, int64(len(gname)), 8)
		ctxA.Incremental = true
		ctxA.DirtyAudit = true
		repA, err := RunFlow(nwA, flow, ctxA)
		if err != nil {
			t.Fatalf("%s/rewrite incremental: %v", gname, err)
		}
		ctxB, flowB := rewriteFlow(nwB, int64(len(gname)), 8)
		ctxB.Incremental = true
		ctxB.FullRecompute = true
		repB, err := RunFlow(nwB, flowB, ctxB)
		if err != nil {
			t.Fatalf("%s/rewrite full: %v", gname, err)
		}
		compareTrajectories(t, gname+"/rewrite", repA, repB)
	}
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

// TestRegistryPassesPassDirtyAudit runs every registered pass under the
// dirty audit: any pass mutating the network outside the mutation API
// (and so invisibly to incremental re-estimation) fails the flow. This is
// the executable form of the pass audit.
func TestRegistryPassesPassDirtyAudit(t *testing.T) {
	for name := range Registry() {
		nw, err := circuits.ArrayMultiplier(3)
		if err != nil {
			t.Fatal(err)
		}
		fctx := NewContext(nw, 7)
		fctx.DirtyAudit = true
		if _, err := RunFlow(nw, Flow{Name: "audit-" + name, Passes: []string{name}}, fctx); err != nil {
			t.Errorf("pass %q failed under dirty audit: %v", name, err)
		}
	}
}

// TestDirtyAuditCatchesBypass proves the audit actually bites: a pass
// writing Node fields directly fails the flow with a bypass error.
func TestDirtyAuditCatchesBypass(t *testing.T) {
	nw, err := circuits.ParityTree(4)
	if err != nil {
		t.Fatal(err)
	}
	fctx := NewContext(nw, 1)
	fctx.DirtyAudit = true
	fctx.Verify = false // the bypass changes function; that's not the point here
	fctx.ExtraPasses = map[string]Pass{
		"bypass": {
			Name: "bypass", Level: "logic",
			Description: "illegal direct field write (test)",
			Run: func(nw *logic.Network, ctx *Context) error {
				g := nw.Gates()[0]
				nw.Node(g).Type = logic.Xnor // bypasses the mutation API
				return nil
			},
		},
	}
	if _, err := RunFlow(nw, Flow{Name: "bypass", Passes: []string{"bypass"}}, fctx); err == nil {
		t.Fatal("dirty audit missed a direct Node field write")
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
