package timing

import (
	"math"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

func TestAnalyzeRippleAdder(t *testing.T) {
	nw, err := circuits.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(nw, Unit(nw), -1)
	if err != nil {
		t.Fatal(err)
	}
	_, depth, err := nw.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if a.Critical != float64(depth) {
		t.Errorf("critical = %v, depth = %d", a.Critical, depth)
	}
	// Slacks are non-negative and zero somewhere on the critical path.
	zero := false
	for _, id := range nw.Live() {
		if a.Slack[id] < -1e-9 {
			t.Errorf("node %s has negative slack %v", nw.Node(id).Name, a.Slack[id])
		}
		if math.Abs(a.Slack[id]) < 1e-9 && nw.Node(id).Type.IsGate() {
			zero = true
		}
	}
	if !zero {
		t.Error("no zero-slack gate found")
	}
}

func TestAnalyzeWithTarget(t *testing.T) {
	nw, err := circuits.ParityChain(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(nw, Unit(nw), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Depth is 3; target 10 gives the PO driver slack 7.
	po := nw.POs()[0]
	if math.Abs(a.Slack[po]-7) > 1e-9 {
		t.Errorf("PO slack = %v, want 7", a.Slack[po])
	}
}

func TestArrivalMonotonic(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(nw, Unit(nw), -1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range nw.Gates() {
		n := nw.Node(id)
		for _, f := range n.Fanin {
			if a.Arrival[id] < a.Arrival[f]+1-1e-9 {
				t.Errorf("arrival(%s) < arrival(fanin)+1", n.Name)
			}
		}
	}
}

func TestSequentialEndpoints(t *testing.T) {
	// FF D-inputs are timing endpoints.
	nw := logic.New("seq")
	x := nw.MustInput("x")
	g1 := nw.MustGate("g1", logic.Not, x)
	g2 := nw.MustGate("g2", logic.Not, g1)
	if _, err := nw.AddDFF("q", g2, false); err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(nw, Unit(nw), -1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Critical != 2 {
		t.Errorf("critical = %v, want 2 (to FF D input)", a.Critical)
	}
}

func TestCustomDelays(t *testing.T) {
	nw := logic.New("w")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	g1 := nw.MustGate("g1", logic.Not, a)
	g2 := nw.MustGate("g2", logic.And, g1, b)
	if err := nw.MarkOutput(g2); err != nil {
		t.Fatal(err)
	}
	d := func(id logic.NodeID) float64 {
		switch id {
		case g1:
			return 3.5
		case g2:
			return 2.0
		}
		return 0
	}
	an, err := Analyze(nw, d, -1)
	if err != nil {
		t.Fatal(err)
	}
	if an.Critical != 5.5 {
		t.Errorf("critical = %v, want 5.5", an.Critical)
	}
	if math.Abs(an.Slack[b]-3.5) > 1e-9 {
		t.Errorf("slack(b) = %v, want 3.5", an.Slack[b])
	}
}
