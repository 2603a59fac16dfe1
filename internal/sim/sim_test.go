package sim

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// chainXOR builds the classic glitch demonstration circuit: an XOR whose
// two inputs arrive with different delays. y = a XOR (NOT (NOT (NOT a))):
// logically y = a XOR !a = 1 always, but under unit delay every change of
// a produces a pulse on y.
func chainXOR(t *testing.T) *logic.Network {
	t.Helper()
	nw := logic.New("glitch")
	a := nw.MustInput("a")
	n1 := nw.MustGate("n1", logic.Not, a)
	n2 := nw.MustGate("n2", logic.Not, n1)
	n3 := nw.MustGate("n3", logic.Not, n2)
	y := nw.MustGate("y", logic.Xor, a, n3)
	if err := nw.MarkOutput(y); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestGlitchDetection(t *testing.T) {
	nw := chainXOR(t)
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	// a: 0 -> 1. y is constantly 1 in steady state, but the XOR sees the
	// direct edge at t=1 (output flips to 0) and the inverted edge at t=4
	// (output returns to 1): two spurious transitions on y, plus the three
	// inverter transitions which are useful.
	cs, err := s.Cycle([]bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Spurious != 2 {
		t.Errorf("spurious = %d, want 2 (glitch pulse on y)", cs.Spurious)
	}
	if cs.Useful != 3 {
		t.Errorf("useful = %d, want 3 (three inverters settle to new values)", cs.Useful)
	}
	y := nw.ByName("y")
	if !s.Value(y) {
		t.Error("y must settle back to 1")
	}
}

func TestZeroDelayFunctionalMatch(t *testing.T) {
	// Event-driven final values must agree with zero-delay settling for
	// random circuits and vectors.
	r := rand.New(rand.NewSource(11))
	nw, err := circuits.RandomDAG(r, 8, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	st := logic.NewState(nw)
	for k := 0; k < 100; k++ {
		in := make([]bool, len(nw.PIs()))
		for i := range in {
			in[i] = r.Intn(2) == 1
		}
		if _, err := s.Cycle(in); err != nil {
			t.Fatal(err)
		}
		want, err := st.Step(in)
		if err != nil {
			t.Fatal(err)
		}
		for i, po := range nw.POs() {
			if s.Value(po) != want[i] {
				t.Fatalf("vector %d output %d: event-driven %v, zero-delay %v", k, i, s.Value(po), want[i])
			}
		}
	}
}

func name(p string, i int) string {
	return p + string(rune('a'+i/10)) + string(rune('0'+i%10))
}

func TestSequentialCycleSemantics(t *testing.T) {
	// Two-bit shift register: q2 <- q1 <- x.
	nw := logic.New("shift")
	x := nw.MustInput("x")
	q1, err := nw.AddDFF("q1", x, false)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := nw.AddDFF("q2", q1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(q2); err != nil {
		t.Fatal(err)
	}
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	seq := []bool{true, false, true, true, false, false}
	var got []bool
	for _, v := range seq {
		if _, err := s.Cycle([]bool{v}); err != nil {
			t.Fatal(err)
		}
		got = append(got, s.Value(q2))
	}
	// q2 lags x by two cycles; initial contents are 0.
	want := []bool{false, false, true, false, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cycle %d: q2=%v want %v", i, got[i], want[i])
		}
	}
	// FF activity must have been recorded.
	if s.Activity(q1) == 0 {
		t.Error("FF output activity should be nonzero")
	}
}

func TestActivityAveraging(t *testing.T) {
	// A buffer driven by an alternating input toggles every cycle:
	// activity 1.0.
	nw := logic.New("buf")
	a := nw.MustInput("a")
	b := nw.MustGate("b", logic.Buf, a)
	if err := nw.MarkOutput(b); err != nil {
		t.Fatal(err)
	}
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Cycle([]bool{i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Activity(b); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("activity = %v, want 1.0", got)
	}
	if got := s.UsefulTransitions(b); got != 10 {
		t.Errorf("useful transitions = %d, want 10", got)
	}
}

func TestRunTotalsAndSpuriousFraction(t *testing.T) {
	nw := chainXOR(t)
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	vecs := [][]bool{{true}, {false}, {true}, {false}}
	tot, err := s.Run(mustPack(t, vecs))
	if err != nil {
		t.Fatal(err)
	}
	if tot.Cycles != 4 {
		t.Errorf("cycles = %d", tot.Cycles)
	}
	// Each input change: 3 useful + 2 spurious.
	if tot.Useful != 12 || tot.Spurious != 8 {
		t.Errorf("useful=%d spurious=%d, want 12/8", tot.Useful, tot.Spurious)
	}
	if f := tot.SpuriousFraction(); math.Abs(f-0.4) > 1e-12 {
		t.Errorf("spurious fraction = %v, want 0.4", f)
	}
	if (Totals{}).SpuriousFraction() != 0 {
		t.Error("empty totals must have zero spurious fraction")
	}
}

// TestDuplicatePinCountsTwice: a gate that reads one net on two pins
// (BLIF ".names a a y") sees that net's changes twice in its ones count,
// so AND(a, a) follows a, and the kernel matches the reference queue.
func TestDuplicatePinCountsTwice(t *testing.T) {
	src := ".model dup\n.inputs a b\n.outputs y z\n.names a a y\n11 1\n.names a b a z\n01- 1\n1-0 1\n.end\n"
	nw, err := logic.ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	dup := false
	for _, id := range nw.Gates() {
		f := nw.Node(id).Fanin
		dup = dup || len(f) == 2 && f[0] == f[1]
	}
	if !dup {
		t.Fatal("no gate reads one net on two pins")
	}
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	q := newRefQueue()
	a, y := nw.ByName("a"), nw.ByName("y")
	for c, v := range RandomVectors(rand.New(rand.NewSource(9)), 64, 2, 0.5) {
		cs, err := s.Cycle(v)
		if err != nil {
			t.Fatal(err)
		}
		if rcs := refCycle(ref, q, v); cs != rcs || !slices.Equal(s.val, ref.val) {
			t.Fatalf("cycle %d: stats %+v, reference %+v", c, cs, rcs)
		}
		if s.Value(y) != s.Value(a) {
			t.Fatalf("cycle %d: y = %v, want a = %v", c, s.Value(y), s.Value(a))
		}
		checkOnes(t, s)
	}
	if s.Transitions(y) == 0 {
		t.Error("y never toggled")
	}
}

func TestInputWidthValidation(t *testing.T) {
	nw := chainXOR(t)
	s, _ := New(nw)
	if _, err := s.Cycle([]bool{true, false}); err == nil {
		t.Error("wrong input width must be rejected")
	}
}

func TestResetClearsActivity(t *testing.T) {
	nw := chainXOR(t)
	s, _ := New(nw)
	if _, err := s.Cycle([]bool{true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if s.Cycles() != 0 {
		t.Error("Reset should clear cycle count")
	}
	for _, id := range nw.Gates() {
		if s.Activity(id) != 0 {
			t.Error("Reset should clear activity")
		}
	}
}

func TestVectorGenerators(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	rv := RandomVectors(r, 1000, 16, 0.3)
	ones := 0
	for _, v := range rv {
		for _, b := range v {
			if b {
				ones++
			}
		}
	}
	frac := float64(ones) / float64(1000*16)
	if math.Abs(frac-0.3) > 0.02 {
		t.Errorf("random vector bias = %v, want ~0.3", frac)
	}

	ww := WalkWords(r, 500, 8, 3)
	for i := 1; i < len(ww); i++ {
		d := int(ww[i]) - int(ww[i-1])
		if d < -3 || d > 3 || ww[i] >= 1<<8 {
			t.Fatalf("walk step %d to %d out of range", d, ww[i])
		}
	}

	if BitsToUint(UintToBits(0xA5, 8)) != 0xA5 {
		t.Error("Uint/Bits round trip failed")
	}
}

// Property: spurious transitions are impossible in a balanced tree (all
// paths equal length) under unit delay.
func TestBalancedTreeNoGlitches(t *testing.T) {
	nw := logic.New("partree")
	var layer []logic.NodeID
	for i := 0; i < 8; i++ {
		layer = append(layer, nw.MustInput(name("x", i)))
	}
	lvl := 0
	for len(layer) > 1 {
		var next []logic.NodeID
		for i := 0; i+1 < len(layer); i += 2 {
			next = append(next, nw.MustGate(name("p", lvl*10+i), logic.Xor, layer[i], layer[i+1]))
		}
		layer = next
		lvl++
	}
	if err := nw.MarkOutput(layer[0]); err != nil {
		t.Fatal(err)
	}
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	tot, err := s.Run(RandomStimulus(r, 200, 8, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if tot.Spurious != 0 {
		t.Errorf("balanced XOR tree glitched %d times under unit delay", tot.Spurious)
	}
}
