package buscode

import (
	"fmt"
	"math/bits"
)

// OneHotResidue implements Chren's one-hot residue coding [11]: a value is
// represented in a residue number system with pairwise-coprime moduli,
// each residue digit transmitted one-hot. Incrementing a value rotates
// each one-hot digit by one position, so arithmetic progressions toggle
// exactly two lines per digit regardless of word width, and RNS addition
// itself reduces to rotation — the source of the low delay-power product.
type OneHotResidue struct {
	Moduli []int
	lines  int
	rng    uint
}

// NewOneHotResidue builds a coder over the given moduli. The coder can
// represent values in [0, Π moduli); its digits take Σ moduli lines, at
// most 64.
func NewOneHotResidue(moduli []int) (*OneHotResidue, error) {
	if len(moduli) == 0 {
		return nil, fmt.Errorf("buscode: residue coder needs moduli")
	}
	prod := uint(1)
	lines := 0
	for i, m := range moduli {
		if m < 2 {
			return nil, fmt.Errorf("buscode: modulus %d invalid", m)
		}
		for j := 0; j < i; j++ {
			if gcd(m, moduli[j]) != 1 {
				return nil, fmt.Errorf("buscode: moduli %d and %d not coprime", m, moduli[j])
			}
		}
		prod *= uint(m)
		lines += m
	}
	if lines > maxLines {
		return nil, fmt.Errorf("buscode: moduli %v need %d lines, more than %d", moduli, lines, maxLines)
	}
	return &OneHotResidue{Moduli: append([]int(nil), moduli...), lines: lines, rng: prod}, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Range returns the number of representable values (product of moduli).
func (o *OneHotResidue) Range() uint { return o.rng }

// Name implements Encoder.
func (o *OneHotResidue) Name() string { return fmt.Sprintf("onehot-rns%v", o.Moduli) }

// Lines implements Encoder.
func (o *OneHotResidue) Lines() int { return o.lines }

// Encode implements Encoder: digit d of the word drives line r_d of its
// m_d-line group, where r_d = word mod m_d.
func (o *OneHotResidue) Encode(word uint) uint64 {
	word %= o.rng
	var out uint64
	base := 0
	for _, m := range o.Moduli {
		out |= 1 << uint(base+int(word%uint(m)))
		base += m
	}
	return out
}

// Decode implements Encoder (Chinese Remainder reconstruction). A digit
// group with no line high reads as residue 0; with several, the lowest
// wins.
func (o *OneHotResidue) Decode(lines uint64) uint {
	residues := make([]int, len(o.Moduli))
	base := 0
	for i, m := range o.Moduli {
		if digit := lines >> uint(base) & lineMask(m); digit != 0 {
			residues[i] = bits.TrailingZeros64(digit)
		}
		base += m
	}
	// CRT by search is fine for the small ranges used here.
	for v := uint(0); v < o.rng; v++ {
		ok := true
		for i, m := range o.Moduli {
			if int(v%uint(m)) != residues[i] {
				ok = false
				break
			}
		}
		if ok {
			return v
		}
	}
	return 0
}

// Reset implements Encoder; the code is stateless.
func (o *OneHotResidue) Reset() {}

// AddConstRotation models RNS addition of a constant as per-digit
// rotation: it returns the line word of value+delta given the line word
// of value, touching each digit with exactly one rotate — the
// constant-time arithmetic structure of [11].
func (o *OneHotResidue) AddConstRotation(lines uint64, delta uint) uint64 {
	var out uint64
	base := 0
	for _, m := range o.Moduli {
		mask := lineMask(m)
		shift := uint(delta % uint(m))
		digit := lines >> uint(base) & mask
		out |= ((digit<<shift | digit>>(uint(m)-shift)) & mask) << uint(base)
		base += m
	}
	return out
}
