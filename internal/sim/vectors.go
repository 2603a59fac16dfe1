package sim

import "math/rand"

// RandomVectors generates n input vectors of the given width where each bit
// is independently 1 with probability p.
func RandomVectors(r *rand.Rand, n, width int, p float64) [][]bool {
	return RandomStimulus(r, n, width, p).Unpack()
}

// WalkWords draws n words of the given width that follow a bounded
// random walk: successive values differ by a signed step of at most
// maxStep, clamped to [0, 2^width). This models correlated datapath
// traffic (DSP samples, loop counters) where neighbouring words share
// most high-order bits — the regime in which bus-invert and Gray coding
// pay off. Bit j of a word is input j of a vector.
func WalkWords(r *rand.Rand, n, width, maxStep int) []uint {
	out := make([]uint, n)
	limit := 1 << width
	val := r.Intn(limit)
	for i := range out {
		val += r.Intn(2*maxStep+1) - maxStep
		if val < 0 {
			val = 0
		}
		if val >= limit {
			val = limit - 1
		}
		out[i] = uint(val)
	}
	return out
}

// BitsToUint converts a little-endian bit slice back to an integer.
func BitsToUint(bits []bool) uint {
	var v uint
	for j, b := range bits {
		if b {
			v |= 1 << j
		}
	}
	return v
}

// UintToBits converts v to a little-endian bit slice of the given width.
func UintToBits(v uint, width int) []bool {
	out := make([]bool, width)
	for j := range out {
		out[j] = v&(1<<j) != 0
	}
	return out
}
