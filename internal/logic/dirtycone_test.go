package logic

import (
	"slices"
	"testing"
)

// TestShapeUpdate: Update reports, in ID order, exactly the slots each
// mutation API changed since the last Update — new slots, rewired
// consumers, deleted nodes and primary-output roles — and nothing when
// the network is unchanged.
func TestShapeUpdate(t *testing.T) {
	nw := New("d")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	g1 := nw.MustGate("g1", And, a, b)
	g2 := nw.MustGate("g2", Not, g1)
	if err := nw.MarkOutput(g2); err != nil {
		t.Fatal(err)
	}
	var sh Shape
	check := func(step string, want ...NodeID) {
		t.Helper()
		if got := sh.Update(nw); !slices.Equal(got, want) {
			t.Errorf("%s: changed = %v, want %v", step, got, want)
		}
	}
	check("first update", a, b, g1, g2)
	check("no change")

	if err := nw.ReplaceFanin(g1, b, a); err != nil {
		t.Fatal(err)
	}
	check("ReplaceFanin", g1)

	g3 := nw.MustGate("g3", And, a, a)
	check("AddGate", g3)

	// ReplaceNode rewires g1's consumer g2 and deletes g1.
	if err := nw.ReplaceNode(g1, g3); err != nil {
		t.Fatal(err)
	}
	check("ReplaceNode", g1, g2)

	// Redirecting an output moves the role from the old driver (deleted)
	// to the new one.
	g4 := nw.MustGate("g4", Buf, g3)
	check("AddGate of a second consumer", g4)
	if err := nw.ReplaceNode(g2, g4); err != nil {
		t.Fatal(err)
	}
	check("ReplaceNode of an output driver", g2, g4)

	if err := nw.MarkOutput(g3); err != nil {
		t.Fatal(err)
	}
	check("MarkOutput", g3)

	ff, err := nw.AddDFF("ff", g3, true)
	if err != nil {
		t.Fatal(err)
	}
	check("AddDFF", ff)

	g5 := nw.MustGate("g5", Not, a)
	if err := nw.DeleteNode(g5); err != nil {
		t.Fatal(err)
	}
	check("AddGate then DeleteNode", g5)

	// Two shapes on one network keep separate records.
	var other Shape
	if got := other.Update(nw); len(got) != nw.NumNodes() {
		t.Errorf("a second shape's first update reported %d of %d slots", len(got), nw.NumNodes())
	}
	check("after another shape's update")
}

// TestShapeSeesDirectWrites: the comparison reads the node fields
// themselves, so writes that bypass the mutation APIs are reported too.
func TestShapeSeesDirectWrites(t *testing.T) {
	nw := New("a")
	x := nw.MustInput("x")
	y := nw.MustInput("y")
	g1 := nw.MustGate("g1", And, x, y)
	g2 := nw.MustGate("g2", Not, g1)
	if err := nw.MarkOutput(g2); err != nil {
		t.Fatal(err)
	}
	ff, err := nw.AddDFF("ff", g2, false)
	if err != nil {
		t.Fatal(err)
	}
	var sh Shape
	sh.Update(nw)
	for _, tc := range []struct {
		name  string
		write func()
		want  []NodeID
	}{
		{"Node.Type", func() { nw.Node(g1).Type = Nand }, []NodeID{g1}},
		{"Fanin splice", func() { nw.Node(g2).Fanin[0] = x }, []NodeID{g2}},
		{"InitVal", func() { nw.Node(ff).InitVal = true }, []NodeID{ff}},
		{"output list", func() { nw.POs()[0] = g1 }, []NodeID{g1, g2}},
		{"name only", func() { nw.Node(g1).Name = "renamed" }, nil},
	} {
		tc.write()
		if got := sh.Update(nw); !slices.Equal(got, tc.want) {
			t.Errorf("%s: changed = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDirtyCone: the cone is the topo-ordered live transitive fanout of
// the dirty set, with dead dirty nodes reported as Removed and dirty
// sources reported as Sources.
func TestDirtyCone(t *testing.T) {
	nw := New("c")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	g1 := nw.MustGate("g1", And, a, b)
	g2 := nw.MustGate("g2", Or, g1, a)
	g3 := nw.MustGate("g3", Not, b) // NOT in g1's fanout
	g4 := nw.MustGate("g4", Xor, g2, g3)
	if err := nw.MarkOutput(g4); err != nil {
		t.Fatal(err)
	}

	cone, err := nw.DirtyCone([]NodeID{g1})
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{g1, g2, g4}
	if len(cone.Members) != len(want) {
		t.Fatalf("cone members = %v, want %v", cone.Members, want)
	}
	pos := map[NodeID]int{}
	for i, id := range cone.Members {
		pos[id] = i
	}
	for _, id := range want {
		if _, ok := pos[id]; !ok {
			t.Fatalf("cone %v missing %d", cone.Members, id)
		}
		if !cone.In[id] {
			t.Errorf("In mask false for member %d", id)
		}
	}
	if cone.In[g3] {
		t.Error("g3 is outside g1's fanout but is in the cone")
	}
	if pos[g1] > pos[g2] || pos[g2] > pos[g4] {
		t.Errorf("cone not topo-ordered: %v", cone.Members)
	}
	if len(cone.Sources) != 0 || len(cone.Removed) != 0 {
		t.Errorf("unexpected Sources=%v Removed=%v", cone.Sources, cone.Removed)
	}

	// A dirty primary input is a Source and still floods its fanout.
	cone, err = nw.DirtyCone([]NodeID{b})
	if err != nil {
		t.Fatal(err)
	}
	if len(cone.Sources) != 1 || cone.Sources[0] != b {
		t.Errorf("Sources = %v, want [%d]", cone.Sources, b)
	}
	if !cone.In[g1] || !cone.In[g3] || !cone.In[g4] {
		t.Errorf("source flood incomplete: %v", cone.Members)
	}

	// A deleted dirty node lands in Removed, not Members.
	g5 := nw.MustGate("g5", Not, a)
	var sh Shape
	sh.Update(nw)
	if err := nw.DeleteNode(g5); err != nil {
		t.Fatal(err)
	}
	cone, err = nw.DirtyCone(sh.Update(nw))
	if err != nil {
		t.Fatal(err)
	}
	if len(cone.Removed) != 1 || cone.Removed[0] != g5 {
		t.Errorf("Removed = %v, want [%d]", cone.Removed, g5)
	}
	if len(cone.Members) != 0 {
		t.Errorf("deleting a fanout-free node produced members %v", cone.Members)
	}
}

// TestDirtyConeStopsAtDFF: fanout traversal terminates at flip-flops and
// reports them as Sources instead of flooding through the cycle.
func TestDirtyConeStopsAtDFF(t *testing.T) {
	nw := New("s")
	a := nw.MustInput("a")
	g1 := nw.MustGate("g1", Not, a)
	ff, err := nw.AddDFF("ff", g1, false)
	if err != nil {
		t.Fatal(err)
	}
	g2 := nw.MustGate("g2", And, ff, a)
	if err := nw.MarkOutput(g2); err != nil {
		t.Fatal(err)
	}

	cone, err := nw.DirtyCone([]NodeID{g1})
	if err != nil {
		t.Fatal(err)
	}
	if cone.In[g2] {
		t.Error("cone flooded through the DFF boundary")
	}
	if len(cone.Sources) != 1 || cone.Sources[0] != ff {
		t.Errorf("Sources = %v, want [%d]", cone.Sources, ff)
	}
	if len(cone.Members) != 1 || cone.Members[0] != g1 {
		t.Errorf("Members = %v, want [%d]", cone.Members, g1)
	}
}
