package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// packPerInput is the lane packing PackedSimulator.run had before it
// read packed stimulus words, kept as the oracle for Stimulus's layout:
// one word per primary input, filled by walking the block with a branch
// per bit.
func packPerInput(pis []logic.NodeID, block [][]bool) map[logic.NodeID]uint64 {
	words := make(map[logic.NodeID]uint64, len(pis))
	for i, pi := range pis {
		var w uint64
		for j, v := range block {
			if v[i] {
				w |= 1 << j
			}
		}
		words[pi] = w
	}
	return words
}

// biasedRows is the bool draw loop the [][]bool generators had before
// BiasedStimulus, kept as the draw-order oracle: one r.Float64 per bit, in
// vector order.
func biasedRows(r *rand.Rand, n int, probs []float64) [][]bool {
	out := make([][]bool, n)
	for i := range out {
		out[i] = make([]bool, len(probs))
		for j, p := range probs {
			out[i][j] = r.Float64() < p
		}
	}
	return out
}

// mustPack packs a test's vector stream.
func mustPack(t testing.TB, vecs [][]bool) Stimulus {
	t.Helper()
	st, err := PackVectors(vecs)
	if err != nil {
		t.Fatal(err)
	}
	return st
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

// TestPackMatchesPerInputOracle checks the packed stimulus words against
// the per-input oracle, block by block, at widths and stream lengths on
// both sides of the 64-bit word, and checks the whole run against the
// scalar zero-delay reference.
func TestPackMatchesPerInputOracle(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65}
	for _, width := range sizes {
		for _, n := range sizes {
			nw := parityNetwork(width)
			vecs := RandomVectors(rand.New(rand.NewSource(int64(width*100+n))), n, width, 0.5)
			st, err := PackVectors(vecs)
			if err != nil {
				t.Fatal(err)
			}
			for base := 0; base < n; base += 64 {
				want := packPerInput(nw.PIs(), vecs[base:min(base+64, n)])
				for i, pi := range nw.PIs() {
					if got := st.block(base / 64)[i]; got != want[pi] {
						t.Fatalf("width %d, %d vectors, block at %d, input %d: packed %#x, oracle %#x",
							width, n, base, pi, got, want[pi])
					}
				}
			}
			ps, err := NewPacked(nw)
			if err != nil {
				t.Fatal(err)
			}
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
// fails the run before any cycle is counted, with an error naming it.
func TestPackRaggedStream(t *testing.T) {
	for _, width := range []int{1, 63, 64, 65} {
		nw := parityNetwork(width)
		vecs := RandomVectors(rand.New(rand.NewSource(int64(width))), 100, width, 0.5)
		vecs[70] = vecs[70][:width-1]
		ps, err := NewPacked(nw)
		if err != nil {
			t.Fatal(err)
		}
		tot, err := ps.Run(vecs)
		want := fmt.Sprintf("sim: vector 70 has %d bits, vector 0 has %d", width-1, width)
		if err == nil || err.Error() != want {
			t.Errorf("width %d: Run error %v, want %q", width, err, want)
		}
		if tot.Cycles != 0 || ps.Cycles() != 0 {
			t.Errorf("width %d: %d cycles counted (counts hold %d), want 0", width, tot.Cycles, ps.Cycles())
		}
	}
}

// TestStimulusMatchesBiasedVectors: BiasedStimulus, and DrawStimulus
// over the same draw, pack exactly the bits the bool draw loop draws, word
// for word, DrawStimulus calling back once per bit in vector-major order;
// Unpack, Load and PackVectors round-trip; and Toggles counts each
// input's changes against the previous vector, the first against 0.
func TestStimulusMatchesBiasedVectors(t *testing.T) {
	for _, width := range []int{1, 8, 63, 64, 65} {
		probs := make([]float64, width)
		for j := range probs {
			probs[j] = float64(j%7+1) / 8
		}
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			seed := int64(width*1000 + n)
			rows := biasedRows(rand.New(rand.NewSource(seed)), n, probs)
			st := BiasedStimulus(rand.New(rand.NewSource(seed)), n, probs)
			if st.Len() != n || st.Width() != width {
				t.Fatalf("width %d, n %d: stimulus is %d x %d", width, n, st.Len(), st.Width())
			}
			oracle, err := PackVectors(rows)
			if err != nil {
				t.Fatal(err)
			}
			if n > 0 && !slices.Equal(oracle.words, st.words) {
				t.Fatalf("width %d, n %d: BiasedStimulus words differ from the packed bool draw", width, n)
			}
			dr, calls := rand.New(rand.NewSource(seed)), 0
			drawn := DrawStimulus(n, width, func(i, j int) bool {
				if i*width+j != calls {
					t.Fatalf("width %d, n %d: call %d asked for bit (%d, %d)", width, n, calls, i, j)
				}
				calls++
				return dr.Float64() < probs[j]
			})
			if calls != n*width || drawn.Len() != n || drawn.Width() != width {
				t.Fatalf("width %d, n %d: DrawStimulus made %d calls for a %d x %d stimulus", width, n, calls, drawn.Len(), drawn.Width())
			}
			if n > 0 && !slices.Equal(oracle.words, drawn.words) {
				t.Fatalf("width %d, n %d: DrawStimulus words differ from the packed bool draw", width, n)
			}
			un := st.Unpack()
			if !reflect.DeepEqual(un, rows) && n > 0 {
				t.Fatalf("width %d, n %d: Unpack differs from the bool draw", width, n)
			}
			if again, _ := PackVectors(un); n > 0 && !reflect.DeepEqual(again, st) {
				t.Fatalf("width %d, n %d: PackVectors(Unpack()) differs", width, n)
			}
			want := make([]int, width)
			prev := make([]bool, width)
			for _, v := range rows {
				for j, b := range v {
					want[j] += logic.Bit(b != prev[j])
				}
				prev = v
			}
			if got := st.Toggles(); !slices.Equal(got, want) {
				t.Fatalf("width %d, n %d: toggles %v, want %v", width, n, got, want)
			}
		}
	}
}

// TestStimulusWidthMismatch: the packed and event-driven engines reject a
// stimulus whose width is not the network's input count with an error,
// sequential and sharded; an empty stimulus drives any network.
func TestStimulusWidthMismatch(t *testing.T) {
	nw := parityNetwork(8)
	narrow := RandomStimulus(rand.New(rand.NewSource(1)), 1000, 7, 0.5)
	ps, err := NewPacked(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.RunStimulus(narrow); err == nil {
		t.Error("packed run accepted 7-bit vectors on an 8-input network")
	}
	for _, workers := range []int{1, 4} {
		if _, err := MeasureStimulusCtx(context.Background(), nw, UnitDelay, narrow, workers); err == nil {
			t.Errorf("measure with %d workers accepted 7-bit vectors on an 8-input network", workers)
		}
		m, err := MeasureStimulusCtx(context.Background(), nw, UnitDelay, Stimulus{}, workers)
		if err != nil || m.Totals.Cycles != 0 {
			t.Errorf("measure of an empty stimulus with %d workers: %v, %+v", workers, err, m)
		}
	}
	if _, err := ps.RunStimulus(Stimulus{}); err != nil {
		t.Errorf("packed run of an empty stimulus: %v", err)
	}
	s, err := New(nw, UnitDelay)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(narrow); err == nil {
		t.Error("event-driven run accepted 7-bit vectors on an 8-input network")
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
			if _, err := s.Run(mustPack(t, vecs)); err != nil {
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
