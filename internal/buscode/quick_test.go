package buscode

import (
	"math/bits"
	"testing"
	"testing/quick"
)

// Property: every coder decodes what it encodes, for arbitrary word
// sequences (stateful coders included).
func TestCodersRoundTripProperty(t *testing.T) {
	mk := map[string]func() Encoder{
		"binary":     func() Encoder { return &Binary{W: 8} },
		"businvert":  func() Encoder { return NewBusInvert(8) },
		"gray":       func() Encoder { return &GrayCode{W: 8} },
		"transition": func() Encoder { return NewTransitionSignal(8) },
	}
	for name, make := range mk {
		make := make
		f := func(words []byte) bool {
			e := make()
			for _, w := range words {
				if e.Decode(e.Encode(uint(w))) != uint(w) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: bus-invert never toggles more than ceil((W+1)/2) lines per
// word, its design guarantee.
func TestBusInvertBoundProperty(t *testing.T) {
	f := func(words []byte) bool {
		e := NewBusInvert(8)
		var prev uint64
		for _, w := range words {
			lines := e.Encode(uint(w))
			toggles := bits.OnesCount64(lines ^ prev)
			prev = lines
			if toggles > 5 { // ceil(9/2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: residue coding is a bijection on its range.
func TestResidueBijectionProperty(t *testing.T) {
	ohr, err := NewOneHotResidue([]int{3, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		w := uint(raw) % ohr.Range()
		return ohr.Decode(ohr.Encode(w)) == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
