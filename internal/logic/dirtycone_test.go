package logic

import (
	"testing"
)

func idSet(ids []NodeID) map[NodeID]bool {
	m := make(map[NodeID]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// TestDirtyTracking: every mutation API records the touched nodes, and
// TakeDirty drains the set.
func TestDirtyTracking(t *testing.T) {
	nw := New("d")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	g1 := nw.MustGate("g1", And, a, b)
	g2 := nw.MustGate("g2", Not, g1)
	if err := nw.MarkOutput(g2); err != nil {
		t.Fatal(err)
	}
	d := idSet(nw.TakeDirty())
	for _, id := range []NodeID{a, b, g1, g2} {
		if !d[id] {
			t.Errorf("node %d not dirty after construction", id)
		}
	}
	if d := nw.Dirty(); len(d) != 0 {
		t.Fatalf("TakeDirty left %d entries", len(d))
	}

	// ReplaceFanin dirties the rewired consumer.
	if err := nw.ReplaceFanin(g1, b, a); err != nil {
		t.Fatal(err)
	}
	if d := nw.Dirty(); len(d) != 1 || d[0] != g1 {
		t.Errorf("ReplaceFanin dirty = %v, want [%d]", d, g1)
	}
	// Dirty (without Take) must not consume.
	if len(nw.Dirty()) != 1 {
		t.Error("Dirty() consumed the set")
	}
	nw.ClearDirty()

	// ReplaceNode dirties consumers of the old node (rewired fanins) and
	// deletes the old node (also dirty).
	g3 := nw.MustGate("g3", And, a, a)
	nw.ClearDirty()
	if err := nw.ReplaceNode(g1, g3); err != nil {
		t.Fatal(err)
	}
	d = idSet(nw.TakeDirty())
	if !d[g2] {
		t.Error("ReplaceNode did not dirty the rewired consumer g2")
	}
	if !d[g1] {
		t.Error("ReplaceNode did not dirty the deleted node g1")
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
	nw.ClearDirty()

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
	nw.ClearDirty()
	if err := nw.DeleteNode(g5); err != nil {
		t.Fatal(err)
	}
	cone, err = nw.DirtyCone(nw.TakeDirty())
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
	nw.ClearDirty()

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

// TestDirtyAudit: the fingerprint audit passes for API-driven rewrites
// and flags a direct Node field write that bypassed dirty tracking.
func TestDirtyAudit(t *testing.T) {
	nw := New("a")
	x := nw.MustInput("x")
	y := nw.MustInput("y")
	g1 := nw.MustGate("g1", And, x, y)
	g2 := nw.MustGate("g2", Not, g1)
	if err := nw.MarkOutput(g2); err != nil {
		t.Fatal(err)
	}
	nw.ClearDirty()

	// Clean pass: API mutations + their dirty set verify.
	audit := NewDirtyAudit(nw)
	if err := nw.ReplaceFanin(g1, y, x); err != nil {
		t.Fatal(err)
	}
	g3 := nw.MustGate("g3", Or, g1, g2)
	if err := nw.MarkOutput(g3); err != nil {
		t.Fatal(err)
	}
	if err := audit.Verify(nw, nw.TakeDirty()); err != nil {
		t.Fatalf("audit flagged API-driven rewrites: %v", err)
	}

	// No-op pass verifies against an empty dirty set.
	audit = NewDirtyAudit(nw)
	if err := audit.Verify(nw, nil); err != nil {
		t.Fatalf("audit flagged an untouched network: %v", err)
	}

	// Bypass: writing Node fields directly changes the fingerprint
	// without entering the dirty set.
	audit = NewDirtyAudit(nw)
	nw.Node(g1).Type = Nand
	if err := audit.Verify(nw, nw.TakeDirty()); err == nil {
		t.Fatal("audit missed a direct Node.Type write")
	}
	nw.Node(g1).Type = And // restore

	// Bypass via fanin splice.
	audit = NewDirtyAudit(nw)
	nw.Node(g2).Fanin[0] = x
	if err := audit.Verify(nw, nil); err == nil {
		t.Fatal("audit missed a direct Fanin splice")
	}
}
