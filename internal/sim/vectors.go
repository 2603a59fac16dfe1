package sim

import "math/rand"

// RandomVectors generates n input vectors of the given width where each bit
// is independently 1 with probability p.
func RandomVectors(r *rand.Rand, n, width int, p float64) [][]bool {
	return RandomStimulus(r, n, width, p).Unpack()
}

// WalkVectors generates n vectors of the given width that encode a bounded
// random walk: successive values differ by a small signed step. This models
// correlated datapath traffic (DSP samples, loop counters) where
// neighbouring words share most high-order bits — the regime in which
// bus-invert and Gray coding pay off.
func WalkVectors(r *rand.Rand, n, width, maxStep int) [][]bool {
	out := make([][]bool, n)
	limit := 1 << width
	val := r.Intn(limit)
	for i := range out {
		step := r.Intn(2*maxStep+1) - maxStep
		val += step
		if val < 0 {
			val = 0
		}
		if val >= limit {
			val = limit - 1
		}
		out[i] = uintToBits(uint(val), width)
	}
	return out
}

// uintToBits converts v to a little-endian bit slice of the given width.
func uintToBits(v uint, width int) []bool {
	out := make([]bool, width)
	for j := 0; j < width; j++ {
		out[j] = v&(1<<j) != 0
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

// UintToBits is the exported form of the little-endian conversion used by
// the vector generators.
func UintToBits(v uint, width int) []bool { return uintToBits(v, width) }
