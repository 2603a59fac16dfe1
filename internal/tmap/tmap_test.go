package tmap

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

func buildTestNetwork(t *testing.T, gen func() (*logic.Network, error)) *logic.Network {
	t.Helper()
	nw, err := gen()
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestDecomposePreservesFunction(t *testing.T) {
	gens := []func() (*logic.Network, error){
		func() (*logic.Network, error) { return circuits.RippleAdder(4) },
		func() (*logic.Network, error) { return circuits.Comparator(4) },
		func() (*logic.Network, error) { return circuits.ALU(3) },
		func() (*logic.Network, error) { return circuits.ParityTree(6) },
		func() (*logic.Network, error) { return circuits.MuxTree(3) },
	}
	for _, gen := range gens {
		nw := buildTestNetwork(t, gen)
		subj, err := DecomposeWith(nw, DecomposeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := subj.Net.Check(); err != nil {
			t.Fatal(err)
		}
		// Subject graph is pure NAND2/INV.
		for _, id := range subj.Net.Gates() {
			n := subj.Net.Node(id)
			switch n.Type {
			case logic.Nand:
				if len(n.Fanin) != 2 {
					t.Errorf("%s: NAND with %d inputs in subject graph", nw.Name, len(n.Fanin))
				}
			case logic.Not:
			default:
				t.Errorf("%s: gate type %s in subject graph", nw.Name, n.Type)
			}
		}
		eq, err := logic.Equivalent(nw, subj.Net)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("%s: decomposition changed function", nw.Name)
		}
	}
}

func TestDecomposeSequential(t *testing.T) {
	nw := logic.New("seq")
	x := nw.MustInput("x")
	c0, _ := nw.AddConst("c0", false)
	q, err := nw.AddDFF("q", c0, true)
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
	subj, err := DecomposeWith(nw, DecomposeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := subj.Net.Check(); err != nil {
		t.Fatal(err)
	}
	if len(subj.Net.FFs()) != 1 {
		t.Fatalf("want 1 FF, got %d", len(subj.Net.FFs()))
	}
	if !subj.Net.Node(subj.Net.FFs()[0]).InitVal {
		t.Error("FF init value lost")
	}
	// Behavioural comparison over 20 cycles.
	s1 := logic.NewState(nw)
	s2 := logic.NewState(subj.Net)
	for i := 0; i < 20; i++ {
		in := []bool{i%3 != 0}
		o1, err1 := s1.Step(in)
		o2, err2 := s2.Step(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if o1[0] != o2[0] {
			t.Fatalf("cycle %d: behaviour diverged", i)
		}
	}
}

func TestMapPreservesFunction(t *testing.T) {
	for _, obj := range []Objective{MinArea, MinDelay, MinPower} {
		nw := buildTestNetwork(t, func() (*logic.Network, error) { return circuits.Comparator(4) })
		m, err := Map(nw, Options{Objective: obj})
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		mapped, err := m.ToNetwork("mapped")
		if err != nil {
			t.Fatal(err)
		}
		if err := mapped.Check(); err != nil {
			t.Fatal(err)
		}
		eq, err := logic.Equivalent(nw, mapped)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("%v mapping changed the function", obj)
		}
		if m.Area <= 0 || m.Delay <= 0 || m.Power <= 0 {
			t.Errorf("%v: degenerate metrics %+v", obj, m)
		}
	}
}

func TestObjectivesOrderMetricsCorrectly(t *testing.T) {
	// Area mapping should not be beaten on area by the others; same for
	// delay and power (each objective optimizes its own metric).
	nw := buildTestNetwork(t, func() (*logic.Network, error) { return circuits.RippleAdder(6) })
	area, err := Map(nw, Options{Objective: MinArea})
	if err != nil {
		t.Fatal(err)
	}
	delay, err := Map(nw, Options{Objective: MinDelay})
	if err != nil {
		t.Fatal(err)
	}
	pw, err := Map(nw, Options{Objective: MinPower})
	if err != nil {
		t.Fatal(err)
	}
	if area.Area > delay.Area+1e-9 || area.Area > pw.Area+1e-9 {
		t.Errorf("area objective lost on area: %v vs %v/%v", area.Area, delay.Area, pw.Area)
	}
	if delay.Delay > area.Delay+1e-9 || delay.Delay > pw.Delay+1e-9 {
		t.Errorf("delay objective lost on delay: %v vs %v/%v", delay.Delay, area.Delay, pw.Delay)
	}
	if pw.Power > area.Power+1e-9 || pw.Power > delay.Power+1e-9 {
		t.Errorf("power objective lost on power: %v vs %v/%v", pw.Power, area.Power, delay.Power)
	}
}

func TestXORCellMatches(t *testing.T) {
	// A bare XOR gate should map to the XOR2 cell (4.5 area) rather than
	// four NAND2s (8 area) under the area objective.
	nw := logic.New("x")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	x := nw.MustGate("x", logic.Xor, a, b)
	if err := nw.MarkOutput(x); err != nil {
		t.Fatal(err)
	}
	m, err := Map(nw, Options{Objective: MinArea})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Matches) != 1 || m.Matches[0].Cell.Name != "XOR2" {
		names := []string{}
		for _, mt := range m.Matches {
			names = append(names, mt.Cell.Name)
		}
		t.Errorf("expected single XOR2 match, got %v", names)
	}
}

// TestLibraryByName: the default library names each cell once, and
// AOI21 is a three-input cell.
func TestLibraryByName(t *testing.T) {
	byName := map[string]Cell{}
	for _, c := range DefaultLibrary().Cells {
		if _, dup := byName[c.Name]; dup {
			t.Errorf("cell %q is defined twice", c.Name)
		}
		byName[c.Name] = c
	}
	if c, ok := byName["AOI21"]; !ok || c.Inputs != 3 {
		t.Errorf("AOI21 = %+v, %t; want a three-input cell", c, ok)
	}
}

func TestObjectiveStrings(t *testing.T) {
	if MinArea.String() != "area" || MinDelay.String() != "delay" || MinPower.String() != "power" {
		t.Error("objective names wrong")
	}
}

func TestMapSequentialCircuit(t *testing.T) {
	// Mapping must handle networks with flip-flops (FF D inputs are tree
	// roots).
	nw := logic.New("seqmap")
	x := nw.MustInput("x")
	y := nw.MustInput("y")
	c0, _ := nw.AddConst("c0", false)
	q, err := nw.AddDFF("q", c0, false)
	if err != nil {
		t.Fatal(err)
	}
	d := nw.MustGate("d", logic.And, x, q)
	d2 := nw.MustGate("d2", logic.Or, d, y)
	if err := nw.ReplaceFanin(q, c0, d2); err != nil {
		t.Fatal(err)
	}
	if err := nw.DeleteNode(c0); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(q); err != nil {
		t.Fatal(err)
	}
	m, err := Map(nw, Options{Objective: MinArea})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := m.ToNetwork("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.Check(); err != nil {
		t.Fatal(err)
	}
	s1 := logic.NewState(nw)
	s2 := logic.NewState(mapped)
	for i := 0; i < 30; i++ {
		in := []bool{i%2 == 0, i%5 == 0}
		o1, err1 := s1.Step(in)
		o2, err2 := s2.Step(in)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if o1[0] != o2[0] {
			t.Fatalf("cycle %d: mapped circuit diverged", i)
		}
	}
}

func TestBalancedDecompositionPreservesFunction(t *testing.T) {
	for _, gen := range []func() (*logic.Network, error){
		func() (*logic.Network, error) { return circuits.ALU(3) },
		func() (*logic.Network, error) { return circuits.Decoder(4) },
		func() (*logic.Network, error) { return circuits.CLAAdder(5) },
	} {
		nw, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		subj, err := DecomposeWith(nw, DecomposeOptions{Balanced: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := subj.Net.Check(); err != nil {
			t.Fatal(err)
		}
		eq, err := logic.Equivalent(nw, subj.Net)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("%s: balanced decomposition changed function", nw.Name)
		}
	}
}

func TestBalancedDecompositionReducesDepth(t *testing.T) {
	// A wide AND gate: left-deep chain depth ~n, balanced ~log n.
	nw := logic.New("wide")
	var ins []logic.NodeID
	for i := 0; i < 8; i++ {
		ins = append(ins, nw.MustInput(string(rune('a'+i))))
	}
	g := nw.MustGate("wide_and", logic.And, ins...)
	if err := nw.MarkOutput(g); err != nil {
		t.Fatal(err)
	}
	left, err := DecomposeWith(nw, DecomposeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bal, err := DecomposeWith(nw, DecomposeOptions{Balanced: true})
	if err != nil {
		t.Fatal(err)
	}
	_, dl, _ := left.Net.Levels()
	_, db, _ := bal.Net.Levels()
	if db >= dl {
		t.Errorf("balanced depth %d should beat left-deep %d", db, dl)
	}
}

func TestDecompositionAblationThroughMapping(t *testing.T) {
	// Both decompositions must map correctly; the shapes expose different
	// cells (the [48] observation).
	nw, err := circuits.Decoder(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, balanced := range []bool{false, true} {
		m, err := Map(nw, Options{
			Objective: MinArea,
			Decompose: DecomposeOptions{Balanced: balanced},
		})
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := m.ToNetwork("m")
		if err != nil {
			t.Fatal(err)
		}
		eq, err := logic.Equivalent(nw, mapped)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("balanced=%v: mapping changed function", balanced)
		}
	}
	mLeft, err := Map(nw, Options{Objective: MinDelay})
	if err != nil {
		t.Fatal(err)
	}
	mBal, err := Map(nw, Options{Objective: MinDelay, Decompose: DecomposeOptions{Balanced: true}})
	if err != nil {
		t.Fatal(err)
	}
	if mBal.Delay > mLeft.Delay {
		t.Errorf("balanced decomposition should not worsen delay mapping: %v vs %v",
			mBal.Delay, mLeft.Delay)
	}
}
