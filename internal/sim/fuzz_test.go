package sim

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
)

// FuzzEventSim parses fuzzed BLIF the way the server reads uploads,
// simulates it at unit delay over seeded random vectors, and checks the
// two-queue simulator against the heap-and-map reference queue: per-cycle
// stats, queue high-water marks, settled node values and per-node counts.
// After every cycle each gate's ones count must equal a recount of its
// fanin values. It also checks that sharded MeasureRunCtx equals the
// sequential run.
func FuzzEventSim(f *testing.F) {
	for i, gen := range []func() (*logic.Network, error){
		func() (*logic.Network, error) { return circuits.RippleAdder(3) },
		func() (*logic.Network, error) { return circuits.ArrayMultiplier(3) },
		func() (*logic.Network, error) { return circuits.Comparator(4) },
		func() (*logic.Network, error) { return circuits.ALU(3) },
	} {
		nw, err := gen()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := logic.WriteBLIF(&buf, nw); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), int64(i))
	}
	f.Add([]byte(".model toggler\n.inputs en\n.outputs q\n.latch d q 0\n.names en q d\n01 1\n10 1\n.end\n"), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		nw, err := logic.ReadBLIF(bytes.NewReader(data))
		if err != nil || nw.NumNodes() > 2000 {
			return
		}
		s, err := New(nw, UnitDelay)
		if err != nil {
			return // e.g. a combinational cycle
		}
		ref, err := New(nw, UnitDelay)
		if err != nil {
			t.Fatalf("second New failed: %v", err)
		}
		q := newRefQueue()
		vecs := RandomVectors(rand.New(rand.NewSource(seed)), 192, len(nw.PIs()), 0.5)
		for c, v := range vecs {
			cs, err := s.Cycle(v)
			if err != nil {
				t.Fatal(err)
			}
			if rcs := refCycle(ref, q, v); cs != rcs || s.cycleHWM != q.cycleHWM {
				t.Fatalf("cycle %d: stats %+v hwm %d, reference %+v hwm %d", c, cs, s.cycleHWM, rcs, q.cycleHWM)
			}
			if !slices.Equal(s.val, ref.val) {
				t.Fatalf("cycle %d: settled node values differ from the reference", c)
			}
			checkOnes(t, s)
		}
		if !reflect.DeepEqual(s.Counts, ref.Counts) {
			t.Fatal("per-node counts differ from the reference")
		}
		seq, err := MeasureRunCtx(context.Background(), nw, UnitDelay, vecs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Counts, s.Counts) {
			t.Fatal("sequential MeasureRunCtx counts differ from cycle-by-cycle simulation")
		}
		for _, workers := range []int{2, 3} {
			m, err := MeasureRunCtx(context.Background(), nw, UnitDelay, vecs, workers)
			if err != nil {
				t.Fatal(err)
			}
			if m.Totals != seq.Totals || !reflect.DeepEqual(m.Counts, seq.Counts) {
				t.Fatalf("MeasureRunCtx with %d workers differs from the sequential run: %+v vs %+v", workers, m.Totals, seq.Totals)
			}
		}
	})
}

// checkOnes fails unless every gate's ones count equals the number of ones
// among its fanin pins, recounted through the network's own fanin lists.
func checkOnes(t *testing.T, s *Simulator) {
	t.Helper()
	for _, id := range s.nw.Gates() {
		var k int32
		for _, f := range s.nw.Node(id).Fanin {
			if s.val[f] {
				k++
			}
		}
		if s.ones[id] != k {
			t.Fatalf("gate %d: ones count %d, recount %d", id, s.ones[id], k)
		}
	}
}
