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

// seededDelay gives every gate a delay in 1..5 derived from seed and the
// gate's ID.
func seededDelay(seed int64) DelayModel {
	return func(n *logic.Node) int {
		x := uint64(seed) ^ uint64(n.ID)*0x9e3779b97f4a7c15
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 29
		return 1 + int(x%5)
	}
}

// FuzzEventSim parses fuzzed BLIF the way the server reads uploads,
// simulates it under seeded per-gate delays, and checks the timing-wheel
// simulator against the heap-and-map reference queue: per-cycle stats,
// queue high-water marks, settled node values and per-node counts. It also
// checks that sharded MeasureRunCtx equals the sequential run.
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
		dm := seededDelay(seed)
		s, err := New(nw, dm)
		if err != nil {
			return // e.g. a combinational cycle
		}
		ref, err := New(nw, dm)
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
		}
		if !reflect.DeepEqual(s.Counts, ref.Counts) {
			t.Fatal("per-node counts differ from the reference")
		}
		seq, err := MeasureRunCtx(context.Background(), nw, dm, vecs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Counts, s.Counts) {
			t.Fatal("sequential MeasureRunCtx counts differ from cycle-by-cycle simulation")
		}
		for _, workers := range []int{2, 3} {
			m, err := MeasureRunCtx(context.Background(), nw, dm, vecs, workers)
			if err != nil {
				t.Fatal(err)
			}
			if m.Totals != seq.Totals || !reflect.DeepEqual(m.Counts, seq.Counts) {
				t.Fatalf("MeasureRunCtx with %d workers differs from the sequential run: %+v vs %+v", workers, m.Totals, seq.Totals)
			}
		}
	})
}
