package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// packPerInput is the lane packing PackedSimulator.run had before it
// packed vector by vector, kept as the oracle for pack: one word per
// primary input, filled by walking the block with a branch per bit, the
// width check folded into the first input's walk.
func packPerInput(pis []logic.NodeID, block [][]bool) (map[logic.NodeID]uint64, error) {
	width := len(pis)
	words := make(map[logic.NodeID]uint64, width)
	for i, pi := range pis {
		var w uint64
		for j, v := range block {
			if len(v) != width {
				return nil, fmt.Errorf("sim: packed Run got %d-bit vector, network has %d inputs", len(v), width)
			}
			if v[i] {
				w |= 1 << j
			}
		}
		words[pi] = w
	}
	return words, nil
}

// parityNetwork has width inputs and, from two inputs on, an XOR chain
// over them with every link an output.
func parityNetwork(width int) *logic.Network {
	nw := logic.New(fmt.Sprintf("par%d", width))
	var acc logic.NodeID
	for i := 0; i < width; i++ {
		pi := nw.MustInput(fmt.Sprintf("i%d", i))
		if i == 0 {
			acc = pi
			continue
		}
		acc = nw.MustGate(fmt.Sprintf("x%d", i), logic.Xor, acc, pi)
		if err := nw.MarkOutput(acc); err != nil {
			panic(err)
		}
	}
	return nw
}

// TestPackMatchesPerInputOracle checks the branch-free packing against
// the per-input oracle, block by block, at widths and stream lengths on
// both sides of the 64-bit word, and checks the whole run against the
// scalar zero-delay reference.
func TestPackMatchesPerInputOracle(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65}
	for _, width := range sizes {
		for _, n := range sizes {
			nw := parityNetwork(width)
			vecs := RandomVectors(rand.New(rand.NewSource(int64(width*100+n))), n, width, 0.5)
			ps, err := NewPacked(nw)
			if err != nil {
				t.Fatal(err)
			}
			for base := 0; base < n; base += 64 {
				block := vecs[base:min(base+64, n)]
				want, err := packPerInput(nw.PIs(), block)
				if err != nil {
					t.Fatal(err)
				}
				if err := ps.pack(block); err != nil {
					t.Fatal(err)
				}
				for _, pi := range nw.PIs() {
					if ps.val[pi] != want[pi] {
						t.Fatalf("width %d, %d vectors, block at %d, input %d: packed %#x, oracle %#x",
							width, n, base, pi, ps.val[pi], want[pi])
					}
				}
			}
			ps.Reset()
			tot, err := ps.Run(vecs)
			if err != nil {
				t.Fatal(err)
			}
			ref := scalarZeroDelayCounts(t, nw, vecs)
			var gates int64
			for _, id := range nw.Gates() {
				if ps.Transitions(id) != ref[id] {
					t.Errorf("width %d, %d vectors: node %d packed %d, scalar %d", width, n, id, ps.Transitions(id), ref[id])
				}
				gates += ref[id]
			}
			if tot.Transitions != gates || tot.Cycles != n {
				t.Errorf("width %d, %d vectors: totals %+v, want %d transitions over %d cycles", width, n, tot, gates, n)
			}
		}
	}
}

// TestPackRaggedStream: a vector of the wrong width in the second block
// fails the run with the oracle's message, after the first block counted.
func TestPackRaggedStream(t *testing.T) {
	for _, width := range []int{1, 63, 64, 65} {
		nw := parityNetwork(width)
		vecs := RandomVectors(rand.New(rand.NewSource(int64(width))), 100, width, 0.5)
		vecs[70] = vecs[70][:width-1]
		_, want := packPerInput(nw.PIs(), vecs[64:])
		ps, err := NewPacked(nw)
		if err != nil {
			t.Fatal(err)
		}
		tot, err := ps.Run(vecs)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("width %d: Run error %v, oracle %v", width, err, want)
		}
		if tot.Cycles != 64 {
			t.Errorf("width %d: %d cycles counted before the ragged block, want 64", width, tot.Cycles)
		}
	}
}

// TestRandomVectorsOneBacking: the vectors draw the same bits, in the same
// order, as one allocation per vector did, and appending to one vector
// leaves the next intact.
func TestRandomVectorsOneBacking(t *testing.T) {
	for _, width := range []int{0, 1, 63, 64, 65} {
		got := RandomVectors(rand.New(rand.NewSource(5)), 65, width, 0.3)
		r := rand.New(rand.NewSource(5))
		for i, v := range got {
			if len(v) != width || cap(v) != width {
				t.Fatalf("width %d vector %d: len %d cap %d", width, i, len(v), cap(v))
			}
			for j := range v {
				if want := r.Float64() < 0.3; v[j] != want {
					t.Fatalf("width %d vector %d bit %d: %v, want %v", width, i, j, v[j], want)
				}
			}
		}
		if width > 0 {
			next := got[1][0]
			_ = append(got[0], !next)
			if got[1][0] != next {
				t.Errorf("width %d: appending to vector 0 overwrote vector 1", width)
			}
		}
	}
}

// TestCycleSteadyStateAllocs: once its queues and lists have grown, a
// Simulator cycles without allocating, with the metrics registry off and
// on.
func TestCycleSteadyStateAllocs(t *testing.T) {
	corpus, err := circuits.BLIFCorpus()
	if err != nil {
		t.Fatal(err)
	}
	mult, err := circuits.ArrayMultiplier(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, instrumented := range []bool{false, true} {
		if instrumented {
			obsv.Enable()
			t.Cleanup(obsv.Disable)
		}
		for name, nw := range map[string]*logic.Network{"mult6": mult, "cnt2": corpus["cnt2"]} {
			s, err := New(nw, UnitDelay)
			if err != nil {
				t.Fatal(err)
			}
			vecs := RandomVectors(rand.New(rand.NewSource(3)), 64, len(nw.PIs()), 0.5)
			if _, err := s.Run(vecs); err != nil {
				t.Fatal(err)
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := s.Cycle(vecs[i%len(vecs)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s (instrumented %v): Cycle allocates %v times per call, want 0", name, instrumented, allocs)
			}
		}
	}
}
