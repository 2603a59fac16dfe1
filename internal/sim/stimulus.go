package sim

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/logic"
)

// Stimulus is a stream of n input vectors of one width, packed 64 vectors
// per word per input in block-major order: word b*width+j holds input j
// of vectors 64b … 64b+63, vector 64b+k in bit k. Bits past the last
// vector are 0. A block's words are exactly the primary-input lane words
// the packed engine evaluates, and the stream costs one bit per input per
// vector where [][]bool costs a byte plus a slice header per vector.
//
// The zero value is the empty stream.
type Stimulus struct {
	n, width int
	words    []uint64
}

// newStimulus allocates an all-zero stream of n vectors of the given width.
func newStimulus(n, width int) Stimulus {
	return Stimulus{n: n, width: width, words: make([]uint64, (n+63)/64*width)}
}

// BiasedStimulus draws n vectors where bit i is 1 with probability
// probs[i], one r.Float64 per bit in vector order.
func BiasedStimulus(r *rand.Rand, n int, probs []float64) Stimulus {
	return DrawStimulus(n, len(probs), func(_, j int) bool { return r.Float64() < probs[j] })
}

// RandomStimulus draws n vectors of the given width where each bit is
// independently 1 with probability p: the draw RandomVectors unpacks.
func RandomStimulus(r *rand.Rand, n, width int, p float64) Stimulus {
	probs := make([]float64, width)
	for i := range probs {
		probs[i] = p
	}
	return BiasedStimulus(r, n, probs)
}

// DrawStimulus packs n vectors of the given width, bit j of vector i
// being bit(i, j). It calls bit once per bit in vector-major order, so a
// caller that draws from a random source inside bit keeps its draw order.
// It is the one pack loop: BiasedStimulus, PackVectors, toggle
// processes, walks and r.Intn rows all go through it. Its body stays
// within the compiler's inlining budget, so a caller's literal bit func
// inlines into the loop and the biased draw pays no call per bit.
func DrawStimulus(n, width int, bit func(i, j int) bool) Stimulus {
	s := newStimulus(n, width)
	for i := range n {
		for j := range width {
			s.words[i/64*width+j] |= uint64(logic.Bit(bit(i, j))) << (i & 63)
		}
	}
	return s
}

// PackVectors packs a vector stream; every vector must have the first
// one's width.
func PackVectors(vectors [][]bool) (Stimulus, error) {
	if len(vectors) == 0 {
		return Stimulus{}, nil
	}
	w := len(vectors[0])
	for i, v := range vectors {
		if len(v) != w {
			return Stimulus{}, fmt.Errorf("sim: vector %d has %d bits, vector 0 has %d", i, len(v), w)
		}
	}
	return DrawStimulus(len(vectors), w, func(i, j int) bool { return vectors[i][j] }), nil
}

// Len is the number of vectors.
func (s Stimulus) Len() int { return s.n }

// Width is the number of bits per vector.
func (s Stimulus) Width() int { return s.width }

// Load writes vector i into dst[:Width()].
func (s Stimulus) Load(i int, dst []bool) {
	row, k := s.block(i/64), uint(i%64)
	for j, w := range row {
		dst[j] = w>>k&1 != 0
	}
}

// Unpack returns the vectors as [][]bool. They share one backing array,
// each capped at its own width so an append cannot reach the next.
func (s Stimulus) Unpack() [][]bool {
	out := make([][]bool, s.n)
	flat := make([]bool, s.n*s.width)
	for i := range out {
		out[i] = flat[i*s.width : (i+1)*s.width : (i+1)*s.width]
		s.Load(i, out[i])
	}
	return out
}

// Toggles counts each input's transitions over the stream, the first
// vector compared against the all-zero reset: per block, a popcount of
// the word against itself shifted by one lane, lane 0 compared against
// the previous block's last.
func (s Stimulus) Toggles() []int {
	t := make([]int, s.width)
	for b := 0; b*64 < s.n; b++ {
		mask := laneMask(s.n - b*64)
		for j, w := range s.block(b) {
			var carry uint64
			if b > 0 {
				carry = s.words[(b-1)*s.width+j] >> 63
			}
			t[j] += bits.OnesCount64((w ^ (w<<1 | carry)) & mask)
		}
	}
	return t
}

// block returns the width words of block b.
func (s Stimulus) block(b int) []uint64 {
	return s.words[b*s.width : (b+1)*s.width : (b+1)*s.width]
}

// fits reports whether the stream can drive a network with the given
// number of inputs: an empty stream drives any.
func (s Stimulus) fits(inputs int) bool { return s.n == 0 || s.width == inputs }

// ctxCheckCycles is how many cycles a run simulates between checks of
// its context.
const ctxCheckCycles = 64

// drive is the one vector loop of the Stream and the Simulator: it loads
// vectors lo … hi-1 of st, in order, into one reused buffer and hands
// each to cycle, which must not keep it. It checks ctx before every
// ctxCheckCycles-th vector and stops with ctx.Err() once the context is
// done; uncancelled, the context changes nothing.
func drive(ctx context.Context, st Stimulus, lo, hi, inputs int, cycle func(in []bool) error) error {
	if !st.fits(inputs) {
		return fmt.Errorf("sim: run got %d-bit vectors, network has %d inputs", st.Width(), inputs)
	}
	in := make([]bool, st.Width())
	for i := lo; i < hi; i++ {
		if (i-lo)%ctxCheckCycles == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		st.Load(i, in)
		if err := cycle(in); err != nil {
			return err
		}
	}
	return nil
}

// laneMask selects the first min(k, 64) lanes of a word.
func laneMask(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(k) - 1
}
