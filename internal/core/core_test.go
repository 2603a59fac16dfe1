package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

func TestRegistryAndFlowsConsistent(t *testing.T) {
	reg := Registry()
	for name, p := range reg {
		if p.Name != name || p.Run == nil || p.Description == "" || p.Level == "" {
			t.Errorf("pass %q malformed: %+v", name, p)
		}
	}
	for fname, f := range StandardFlows() {
		for _, pn := range f.Passes {
			if _, ok := reg[pn]; !ok {
				t.Errorf("flow %q references unknown pass %q", fname, pn)
			}
		}
	}
	names := PassNames()
	if len(names) != len(reg) {
		t.Error("PassNames incomplete")
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Error("PassNames unsorted")
		}
	}
}

func TestRunFlowGlitchOnMultiplier(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(nw, 7)
	rep, err := RunFlow(nw, StandardFlows()["glitch"], ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Initial().Spurious == 0 {
		t.Error("multiplier should glitch initially")
	}
	if rep.Final().Spurious != 0 {
		t.Errorf("glitch flow left %.3f spurious fraction", rep.Final().Spurious)
	}
	if rep.Final().SimP >= rep.Initial().SimP {
		t.Errorf("glitch flow power %v should beat initial %v", rep.Final().SimP, rep.Initial().SimP)
	}
	if !strings.Contains(rep.String(), "flow glitch") {
		t.Error("report string malformed")
	}
}

func TestRunFlowLowPowerPreservesFunction(t *testing.T) {
	// The comparator is nearly balanced, so the buffer overhead of full
	// balancing can slightly exceed its small glitch power — the flow must
	// preserve the function regardless; the power win is asserted on the
	// glitch-heavy multiplier below.
	nw, err := circuits.Comparator(4)
	if err != nil {
		t.Fatal(err)
	}
	golden := nw.Clone()
	ctx := NewContext(nw, 3)
	if _, err := RunFlow(nw, StandardFlows()["lowpower"], ctx); err != nil {
		t.Fatal(err)
	}
	eq, err := logic.Equivalent(golden, nw)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("lowpower flow changed the function")
	}
}

func TestRunFlowLowPowerWinsOnGlitchyCircuit(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	golden := nw.Clone()
	ctx := NewContext(nw, 11)
	rep, err := RunFlow(nw, StandardFlows()["lowpower"], ctx)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := logic.Equivalent(golden, nw)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("lowpower flow changed the multiplier")
	}
	if rep.Final().SimP >= rep.Initial().SimP {
		t.Errorf("lowpower flow power %v should beat initial %v on a glitchy circuit",
			rep.Final().SimP, rep.Initial().SimP)
	}
}

func TestRunFlowUnknownPass(t *testing.T) {
	nw, _ := circuits.ParityTree(4)
	ctx := NewContext(nw, 1)
	if _, err := RunFlow(nw, Flow{Name: "bad", Passes: []string{"nope"}}, ctx); err == nil {
		t.Error("unknown pass should fail")
	}
}

func TestMeasureSequential(t *testing.T) {
	nw := logic.New("seq")
	x := nw.MustInput("x")
	c0, _ := nw.AddConst("c0", false)
	q, err := nw.AddDFF("q", c0, false)
	if err != nil {
		t.Fatal(err)
	}
	d := nw.MustGate("d", logic.Xor, x, q)
	if err := nw.ReplaceFanin(q, c0, d); err != nil {
		t.Fatal(err)
	}
	if err := nw.DeleteNode(c0); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(q); err != nil {
		t.Fatal(err)
	}
	ctx := NewContext(nw, 5)
	snap, err := MeasureCtx(context.Background(), nw, ctx, "seq")
	if err != nil {
		t.Fatal(err)
	}
	if snap.FlipFlops != 1 || snap.ExactP <= 0 || snap.SimP <= 0 {
		t.Errorf("degenerate snapshot %+v", snap)
	}
}

func TestFlowsOnBLIFCorpus(t *testing.T) {
	corpus, err := circuits.BLIFCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for name, nw := range corpus {
		for flowName, flow := range StandardFlows() {
			work := nw.Clone()
			ctx := NewContext(work, 5)
			rep, err := RunFlow(work, flow, ctx)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, flowName, err)
			}
			if err := work.Check(); err != nil {
				t.Fatalf("%s/%s: %v", name, flowName, err)
			}
			// Combinational corpus circuits: verify function (RunFlow
			// already does for <=16 PIs and no FFs, but double-check).
			if len(work.FFs()) == 0 && len(nw.FFs()) == 0 {
				eq, err := logic.Equivalent(nw, work)
				if err != nil {
					t.Fatal(err)
				}
				if !eq {
					t.Fatalf("%s/%s: function changed", name, flowName)
				}
			} else {
				// Sequential: behavioural comparison over 100 cycles.
				s1, s2 := logic.NewState(nw), logic.NewState(work)
				for c := 0; c < 100; c++ {
					in := make([]bool, len(nw.PIs()))
					for i := range in {
						in[i] = (c+i)%3 == 0
					}
					o1, err1 := s1.Step(in)
					o2, err2 := s2.Step(in)
					if err1 != nil || err2 != nil {
						t.Fatal(err1, err2)
					}
					for i := range o1 {
						if o1[i] != o2[i] {
							t.Fatalf("%s/%s: cycle %d diverged", name, flowName, c)
						}
					}
				}
			}
			_ = rep
		}
	}
}
