package stg

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New("t", 2, 1)
	if err := g.AddEdge("0", "a", "b", "1"); err == nil {
		t.Error("short input cube should fail")
	}
	if err := g.AddEdge("01", "a", "b", "11"); err == nil {
		t.Error("long output should fail")
	}
	if err := g.AddEdge("0x", "a", "b", "1"); err == nil {
		t.Error("bad literal should fail")
	}
	if err := g.AddEdge("01", "a", "b", "1"); err != nil {
		t.Error(err)
	}
	if g.StateIndex("a") != 0 || g.StateIndex("b") != 1 || g.StateIndex("z") != -1 {
		t.Error("state indexing wrong")
	}
	if g.Reset != "a" {
		t.Error("first state should be reset by default")
	}
	g.SetReset("b")
	if g.Reset != "b" {
		t.Error("SetReset failed")
	}
}

func TestNextSemantics(t *testing.T) {
	g := Corpus()["det1101"]
	// Detector for 1101: drive the sequence and expect the accept output.
	state := g.Reset
	seq := []bool{true, true, false, true}
	var lastOut []bool
	for _, in := range seq {
		next, out, ok := g.Next(state, []bool{in})
		if !ok {
			t.Fatal("transition missing")
		}
		state, lastOut = next, out
	}
	if !lastOut[0] {
		t.Error("detector should fire on 1101")
	}
	// Wrong width input.
	if _, _, ok := g.Next(state, []bool{true, false}); ok {
		t.Error("wrong input width should fail")
	}
}

func TestReachable(t *testing.T) {
	g := New("r", 1, 1)
	g.AddEdge("1", "a", "b", "0")
	g.AddEdge("1", "b", "a", "0")
	g.AddEdge("1", "c", "a", "0") // c unreachable from a
	reach := g.Reachable()
	if !reach["a"] || !reach["b"] || reach["c"] {
		t.Errorf("reachable = %v", reach)
	}
}

func TestTransitionMatrixRowsSumToOne(t *testing.T) {
	for name, g := range Corpus() {
		p := g.TransitionMatrix()
		for i := range p {
			sum := 0.0
			for j := range p[i] {
				if p[i][j] < 0 {
					t.Errorf("%s: negative probability", name)
				}
				sum += p[i][j]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: row %d sums to %v", name, i, sum)
			}
		}
	}
}

func TestSteadyStateCounter(t *testing.T) {
	g := Corpus()["count8"]
	pi := g.SteadyState(0)
	// Symmetric counter: uniform stationary distribution.
	for i, p := range pi {
		if math.Abs(p-0.125) > 1e-6 {
			t.Errorf("state %d: pi=%v, want 0.125", i, p)
		}
	}
}

func TestSteadyStateSumsToOne(t *testing.T) {
	for name, g := range Corpus() {
		pi := g.SteadyState(0)
		sum := 0.0
		for _, p := range pi {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: steady state sums to %v", name, sum)
		}
	}
}

func TestTransitionWeights(t *testing.T) {
	g := Corpus()["count8"]
	w := g.TransitionWeights()
	// Each state moves to its successor with probability 1/2, and pi is
	// 1/8: weight 1/16 on each forward edge, zero elsewhere (self-loops
	// excluded).
	n := len(g.States)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if j == (i+1)%n || (g.States[i] == "s7" && g.States[j] == "s0") {
				// forward edge (state order is declaration order s0..s7)
				if g.StateIndex(g.States[i])+1 == g.StateIndex(g.States[j]) ||
					(g.States[i] == "s7" && g.States[j] == "s0") {
					want = 0.0625
				}
			}
			if math.Abs(w[i][j]-want) > 1e-6 {
				t.Errorf("w[%s][%s] = %v, want %v", g.States[i], g.States[j], w[i][j], want)
			}
		}
	}
}

func TestSelfLoopFraction(t *testing.T) {
	g := Corpus()["idler"]
	sl := g.SelfLoopFraction()
	if sl["off"] != 0.5 {
		t.Errorf("off self-loop = %v, want 0.5", sl["off"])
	}
	if sl["run"] != 0.5 {
		t.Errorf("run self-loop = %v, want 0.5", sl["run"])
	}
}

func TestKISSRoundTrip(t *testing.T) {
	for name, g := range Corpus() {
		var buf bytes.Buffer
		if err := g.WriteKISS(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadKISS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.NumInputs != g.NumInputs || back.NumOut != g.NumOut ||
			len(back.States) != len(g.States) || len(back.Edges) != len(g.Edges) ||
			back.Reset != g.Reset {
			t.Errorf("%s: round trip changed shape", name)
		}
	}
}

func TestReadKISSErrors(t *testing.T) {
	cases := []string{
		".i 1\n.o 1\n1 a b\n",         // bad edge arity
		".i 1\n.o 1\n.r z\n1 a b 0\n", // reset state unseen
		"",                            // no transitions
	}
	for i, src := range cases {
		if _, err := ReadKISS(strings.NewReader(src)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestCorpusComplete(t *testing.T) {
	// Every corpus machine: all states reachable, and every (state, input)
	// pair has a successor.
	for name, g := range Corpus() {
		reach := g.Reachable()
		for _, s := range g.States {
			if !reach[s] {
				t.Errorf("%s: state %s unreachable", name, s)
			}
			for m := 0; m < 1<<g.NumInputs; m++ {
				in := make([]bool, g.NumInputs)
				for i := range in {
					in[i] = m&(1<<i) != 0
				}
				if _, _, ok := g.Next(s, in); !ok {
					t.Errorf("%s: no transition from %s on %v", name, s, in)
				}
			}
		}
	}
}
