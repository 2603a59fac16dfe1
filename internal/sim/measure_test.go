package sim

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// seqFeedbackNetwork builds a small FSM whose next-state logic has a
// glitchy reconvergent carry structure and true feedback, so the settled
// state entering each cycle depends on the entire input history.
func seqFeedbackNetwork(t *testing.T) *logic.Network {
	t.Helper()
	nw := logic.New("fsm")
	x0 := nw.MustInput("x0")
	x1 := nw.MustInput("x1")
	// DFFs need an existing D node, so wire placeholders and re-point
	// them at the real next-state functions below.
	q0, err := nw.AddDFF("q0", x0, false)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := nw.AddDFF("q1", x1, true)
	if err != nil {
		t.Fatal(err)
	}
	a := nw.MustGate("a", logic.Xor, x0, q1)
	b := nw.MustGate("b", logic.And, x1, q0)
	c := nw.MustGate("c", logic.Or, a, b)
	d0 := nw.MustGate("d0", logic.Xor, c, q0)
	d1 := nw.MustGate("d1", logic.Nand, c, a)
	if err := nw.ReplaceFanin(q0, x0, d0); err != nil {
		t.Fatal(err)
	}
	if err := nw.ReplaceFanin(q1, x1, d1); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput(c); err != nil {
		t.Fatal(err)
	}
	return nw
}

// sequentialReference runs the plain single simulator and captures every
// observable the Measure surface exposes.
type refCounts struct {
	totals Totals
	trans  map[logic.NodeID]int64
	useful map[logic.NodeID]int64
}

func referenceRun(t *testing.T, nw *logic.Network, vectors [][]bool) refCounts {
	t.Helper()
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	tot, err := s.Run(mustPack(t, vectors))
	if err != nil {
		t.Fatal(err)
	}
	rc := refCounts{totals: tot, trans: map[logic.NodeID]int64{}, useful: map[logic.NodeID]int64{}}
	for _, id := range nw.Live() {
		rc.trans[id] = s.Transitions(id)
		rc.useful[id] = s.UsefulTransitions(id)
	}
	return rc
}

func checkMeasureMatches(t *testing.T, name string, nw *logic.Network, vectors [][]bool, ref refCounts) {
	t.Helper()
	m, err := MeasureRunCtx(context.Background(), nw, UnitDelay, vectors, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if m.Totals != ref.totals {
		t.Errorf("%s: totals %+v, sequential %+v", name, m.Totals, ref.totals)
	}
	if m.Cycles() != len(vectors) {
		t.Errorf("%s: cycles %d, want %d", name, m.Cycles(), len(vectors))
	}
	for _, id := range nw.Live() {
		if got, want := m.Transitions(id), ref.trans[id]; got != want {
			t.Errorf("%s node %d: transitions %d, sequential %d", name, id, got, want)
		}
		if got, want := m.UsefulTransitions(id), ref.useful[id]; got != want {
			t.Errorf("%s node %d: useful %d, sequential %d", name, id, got, want)
		}
	}
}

// TestMeasureRunCombinationalDeterminism: a measurement over a glitchy
// combinational circuit reproduces the counts of a Simulator run exactly.
func TestMeasureRunCombinationalDeterminism(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(5)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	vecs := RandomVectors(r, 300, len(nw.PIs()), 0.5)
	ref := referenceRun(t, nw, vecs)
	if ref.totals.Spurious == 0 {
		t.Fatal("test circuit should glitch; spurious count is 0")
	}
	checkMeasureMatches(t, "mult5", nw, vecs, ref)
}

// TestMeasureRunSequentialDeterminism: same contract on a feedback FSM,
// whose flip-flop state carries from cycle to cycle.
func TestMeasureRunSequentialDeterminism(t *testing.T) {
	nw := seqFeedbackNetwork(t)
	r := rand.New(rand.NewSource(19))
	vecs := RandomVectors(r, 257, len(nw.PIs()), 0.5)
	ref := referenceRun(t, nw, vecs)
	checkMeasureMatches(t, "fsm", nw, vecs, ref)
}

// TestMeasureRunSmallStreams: streams of up to two words, the empty one
// included, match the Simulator run.
func TestMeasureRunSmallStreams(t *testing.T) {
	nw, err := circuits.CLAAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		vecs := RandomVectors(r, n, len(nw.PIs()), 0.5)
		ref := referenceRun(t, nw, vecs)
		checkMeasureMatches(t, "cla4-small", nw, vecs, ref)
	}
}

// flipCtx is a context whose Err turns to context.Canceled after its
// first k calls, so a test can cancel a run partway through.
type flipCtx struct {
	context.Context
	k     int32
	calls atomic.Int32
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.k {
		return context.Canceled
	}
	return nil
}

// A run whose context is cancelled after it starts stops within
// ctxCheckCycles cycles with ctx.Err(): the event-driven simulator, the
// zero-delay stream and the measurement.
func TestRunStopsOnCancel(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	st := RandomStimulus(rand.New(rand.NewSource(5)), 1024, len(nw.PIs()), 0.5)
	want := 3 * ctxCheckCycles

	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	tot, err := s.run(&flipCtx{Context: context.Background(), k: 3}, st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Simulator: err = %v, want context.Canceled", err)
	}
	if tot.Cycles != want || s.Cycles() != want {
		t.Errorf("Simulator ran %d cycles (counts hold %d), want %d", tot.Cycles, s.Cycles(), want)
	}

	zs, err := NewStream(nw)
	if err != nil {
		t.Fatal(err)
	}
	if err := zs.Run(&flipCtx{Context: context.Background(), k: 3}, st, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Stream: err = %v, want context.Canceled", err)
	}
	if zs.Cycles() != want {
		t.Errorf("Stream ran %d cycles, want %d", zs.Cycles(), want)
	}

	if _, err := MeasureRunCtx(&flipCtx{Context: context.Background(), k: 2}, nw, UnitDelay, st.Unpack(), 0); !errors.Is(err, context.Canceled) {
		t.Errorf("MeasureRunCtx: err = %v, want context.Canceled", err)
	}
	if _, err := MeasureStimulusCtx(&flipCtx{Context: context.Background(), k: 2}, nw, st); !errors.Is(err, context.Canceled) {
		t.Errorf("MeasureStimulusCtx: err = %v, want context.Canceled", err)
	}
}

// TestDelayModelValidation: MeasureRunCtx rejects a delay model that gives
// a gate any delay but 1, since the simulator is unit-delay, and takes nil
// as unit delay.
func TestDelayModelValidation(t *testing.T) {
	nw := chainXOR(t)
	vecs := [][]bool{{true}, {false}}
	for _, d := range []int{0, 2} {
		if _, err := MeasureRunCtx(context.Background(), nw, func(*logic.Node) int { return d }, vecs, 0); err == nil {
			t.Errorf("gate delay %d must be rejected: the simulator is unit-delay", d)
		}
	}
	if _, err := MeasureRunCtx(context.Background(), nw, nil, vecs, 0); err != nil {
		t.Errorf("nil delay model should default to unit delay: %v", err)
	}
}
