// Package buscode implements the datapath encoding techniques of survey
// §III.C.1: bus-invert coding with an extra E line (Stan/Burleson [39]),
// Gray-coded address buses, transition signaling, and the one-hot residue
// number coding of Chren [11]. A common harness counts bus-line
// transitions — the quantity proportional to I/O power — over arbitrary
// word streams.
//
// A bus state is a line word: bit j of a uint64 is the value of line j,
// so a bus has at most 64 lines and the transitions between two states
// are the popcount of their XOR.
package buscode

import (
	"fmt"
	"math/bits"
)

// maxLines is the widest bus a line word carries.
const maxLines = 64

// Encoder maps a stream of data words to bus line values. Encoders are
// stateful: several codes depend on the previously transmitted lines.
type Encoder interface {
	Name() string
	// Lines is the number of physical bus lines used, at most 64.
	Lines() int
	// Encode returns the line word transmitted for the next word; bits
	// at or above Lines() are zero.
	Encode(word uint) uint64
	// Decode recovers the word from a received line word (stateful,
	// mirrors Encode).
	Decode(lines uint64) uint
	// Reset returns the encoder and decoder to the initial bus state.
	Reset()
}

// lineMask returns the line word with lines 0..n-1 high (n <= 64).
func lineMask(n int) uint64 { return 1<<uint(n) - 1 }

// Binary is the unencoded baseline: word bits drive the lines directly.
type Binary struct {
	W int
}

// Name implements Encoder.
func (b *Binary) Name() string { return fmt.Sprintf("binary%d", b.W) }

// Lines implements Encoder.
func (b *Binary) Lines() int { return b.W }

// Encode implements Encoder.
func (b *Binary) Encode(word uint) uint64 { return uint64(word) & lineMask(b.W) }

// Decode implements Encoder.
func (b *Binary) Decode(lines uint64) uint { return uint(lines) }

// Reset implements Encoder.
func (b *Binary) Reset() {}

// BusInvert implements the survey's worked example: an extra line E
// (line W) signals that the transmitted word is bitwise complemented.
// Before each transfer the sender counts how many lines would toggle; if
// more than half, it sends the complement with E=1. The survey's example:
// previous 0000, current 1011 → transmit 0100 with E asserted.
type BusInvert struct {
	W    int
	prev uint64 // previous data lines (E excluded)
}

// NewBusInvert returns a bus-invert coder for w data bits (w+1 lines).
func NewBusInvert(w int) *BusInvert {
	return &BusInvert{W: w}
}

// Name implements Encoder.
func (b *BusInvert) Name() string { return fmt.Sprintf("businvert%d", b.W) }

// Lines implements Encoder.
func (b *BusInvert) Lines() int { return b.W + 1 }

// Encode implements Encoder.
func (b *BusInvert) Encode(word uint) uint64 {
	mask := lineMask(b.W)
	data := uint64(word) & mask
	// The decision in [39]: invert when more than half the data lines
	// would toggle (ties favour no inversion).
	if bits.OnesCount64(data^b.prev) > b.W/2 {
		b.prev = ^data & mask
		return b.prev | 1<<uint(b.W)
	}
	b.prev = data
	return data
}

// Decode implements Encoder.
func (b *BusInvert) Decode(lines uint64) uint {
	mask := lineMask(b.W)
	if lines>>uint(b.W)&1 != 0 {
		return uint(^lines & mask)
	}
	return uint(lines & mask)
}

// Reset implements Encoder.
func (b *BusInvert) Reset() { b.prev = 0 }

// GrayCode transmits the Gray encoding of each word — one line toggle per
// unit step, ideal for instruction-address buses.
type GrayCode struct {
	W int
}

// Name implements Encoder.
func (g *GrayCode) Name() string { return fmt.Sprintf("gray%d", g.W) }

// Lines implements Encoder.
func (g *GrayCode) Lines() int { return g.W }

// Encode implements Encoder.
func (g *GrayCode) Encode(word uint) uint64 { return uint64(word^(word>>1)) & lineMask(g.W) }

// Decode implements Encoder.
func (g *GrayCode) Decode(lines uint64) uint {
	v := uint(lines)
	for shift := uint(1); shift < uint(g.W); shift <<= 1 {
		v ^= v >> shift
	}
	return v & uint(lineMask(g.W))
}

// Reset implements Encoder.
func (g *GrayCode) Reset() {}

// TransitionSignal sends each word as the XOR of the new value with the
// previous line state, so the number of line toggles equals the weight of
// the word rather than the Hamming distance between consecutive words —
// a limited-weight-code building block from [39]. It pays off when words
// are sparse (few 1 bits).
type TransitionSignal struct {
	W       int
	state   uint64 // lines last driven
	rxState uint64 // lines last received
}

// NewTransitionSignal returns a transition-signaling coder.
func NewTransitionSignal(w int) *TransitionSignal {
	return &TransitionSignal{W: w}
}

// Name implements Encoder.
func (t *TransitionSignal) Name() string { return fmt.Sprintf("transition%d", t.W) }

// Lines implements Encoder.
func (t *TransitionSignal) Lines() int { return t.W }

// Encode implements Encoder: line i toggles iff bit i of the word is set.
func (t *TransitionSignal) Encode(word uint) uint64 {
	t.state ^= uint64(word) & lineMask(t.W)
	return t.state
}

// Decode implements Encoder.
func (t *TransitionSignal) Decode(lines uint64) uint {
	word := lines ^ t.rxState
	t.rxState = lines
	return uint(word)
}

// Reset implements Encoder.
func (t *TransitionSignal) Reset() {
	t.state = 0
	t.rxState = 0
}

// Stats aggregates a transition-count run.
type Stats struct {
	Encoder     string
	Lines       int
	Words       int
	Transitions int64
	// Worst is the most lines any word toggled after the first; the
	// first word's toggles from the all-zero reset state are left out.
	Worst int
}

// PerWord is the average line transitions per transferred word.
func (s Stats) PerWord() float64 {
	if s.Words == 0 {
		return 0
	}
	return float64(s.Transitions) / float64(s.Words)
}

// CountTransitions drives the encoder over the word stream and counts bus
// line transitions (lines start at the reset state of all-zero). It also
// verifies the decode path and returns an error on any mismatch.
func CountTransitions(e Encoder, words []uint) (Stats, error) {
	e.Reset()
	n := e.Lines()
	st := Stats{Encoder: e.Name(), Lines: n, Words: len(words)}
	if n < 0 || n > maxLines {
		return st, fmt.Errorf("buscode: %s declares %d lines, want 0..%d", e.Name(), n, maxLines)
	}
	var prev uint64
	for i, w := range words {
		lines := e.Encode(w)
		if lines&^lineMask(n) != 0 {
			return st, fmt.Errorf("buscode: %s drove line word %#x, wider than its %d declared lines", e.Name(), lines, n)
		}
		got := e.Decode(lines)
		if got != w {
			return st, fmt.Errorf("buscode: %s decode mismatch at word %d: sent %#x got %#x", e.Name(), i, w, got)
		}
		toggles := bits.OnesCount64(lines ^ prev)
		st.Transitions += int64(toggles)
		if i > 0 && toggles > st.Worst {
			st.Worst = toggles
		}
		prev = lines
	}
	return st, nil
}
