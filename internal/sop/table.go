package sop

import (
	"fmt"

	"repro/internal/logic"
)

// MaxTableVars is the widest support a truth table spans: Minimize runs
// its set tests on tables for every cover whose support has at most this
// many variables (2^16 bits, 1,024 words), and Cover.TruthTable refuses
// wider covers.
const MaxTableVars = 16

// Table is a bit-packed truth table: bit m%64 of word m/64 holds
// minterm m.
type Table []uint64

// Has reports whether minterm m is in the table.
func (t Table) Has(m int) bool { return t[m>>6]>>(m&63)&1 != 0 }

// space is the minterm space of a list of cover variables: a table over
// it has bit m%64 of word m/64 set when minterm m is in the set, where
// bit j of m is the value of cover variable vars[j]. This is the row
// layout of logic.RowWord: the first six table variables select a bit
// within a word (by RowWord's lane masks), the rest select the word.
type space struct {
	vars  []int
	words int
	// full masks the valid bits of each word (fewer than 64 when the
	// space has fewer than six variables).
	full uint64
}

func newSpace(vars []int) space {
	s := space{vars: vars, words: 1, full: ^uint64(0)}
	if n := len(vars); n < 6 {
		s.full = 1<<(1<<n) - 1
	} else {
		s.words = 1 << (n - 6)
	}
	return s
}

// cube returns the minterms of c as a word pattern and a word selector:
// word w of c's table is low when w&care == val, and 0 otherwise.
func (s space) cube(c Cube) (low uint64, care, val int) {
	low = s.full
	for j, v := range s.vars {
		if c[v] == Dash {
			continue
		}
		one := c[v] == One
		if j < 6 {
			if one {
				low &= logic.RowWord(j, 0)
			} else {
				low &^= logic.RowWord(j, 0)
			}
			continue
		}
		care |= 1 << (j - 6)
		if one {
			val |= 1 << (j - 6)
		}
	}
	return low, care, val
}

// or adds the minterms of c to t.
func (s space) or(t Table, c Cube) {
	low, care, val := s.cube(c)
	for w := val; w < s.words; w++ {
		if w&care == val {
			t[w] |= low
		}
	}
}

// cover returns the table of cv's minterms.
func (s space) cover(cv *Cover) Table {
	t := make(Table, s.words)
	for _, c := range cv.Cubes {
		s.or(t, c)
	}
	return t
}

// TruthTable returns the cover's truth table over all its variables:
// minterm m is in it when the cover is true on m, where bit j of m is
// the value of variable j. Covers over more than MaxTableVars variables
// are refused.
func (cv *Cover) TruthTable() (Table, error) {
	if cv.NumVars > MaxTableVars {
		return nil, fmt.Errorf("sop: truth table of a %d-variable cover (max %d)", cv.NumVars, MaxTableVars)
	}
	vars := make([]int, cv.NumVars)
	for i := range vars {
		vars[i] = i
	}
	return newSpace(vars).cover(cv), nil
}

// support lists, in ascending order, the variables on which some cube of
// the covers has a literal.
func support(n int, covers ...*Cover) []int {
	var vars []int
	for v := 0; v < n; v++ {
	scan:
		for _, cv := range covers {
			for _, c := range cv.Cubes {
				if c[v] != Dash {
					vars = append(vars, v)
					break scan
				}
			}
		}
	}
	return vars
}

// tableOracle answers Minimize's set tests on truth tables over the
// support of the function and its don't-care set. Every cube the loop
// holds is dashed outside that support, and the ON- and DC-sets do not
// depend on the variables outside it, so each test on the tables equals
// the test on the full minterm sets.
type tableOracle struct {
	s space
	// onDC is ON ∪ DC (its complement is the OFF-set); dc is DC alone.
	onDC, dc Table
	// acc is scratch for the union of the other cubes.
	acc Table
}

func newTableOracle(vars []int, f, dc *Cover) *tableOracle {
	s := newSpace(vars)
	o := &tableOracle{s: s, dc: s.cover(dc), acc: make(Table, s.words)}
	o.onDC = s.cover(f)
	for w, x := range o.dc {
		o.onDC[w] |= x
	}
	return o
}

func (o *tableOracle) meetsOff(c Cube) bool {
	low, care, val := o.s.cube(c)
	for w := val; w < o.s.words; w++ {
		if w&care == val && low&^o.onDC[w] != 0 {
			return true
		}
	}
	return false
}

// unique leaves in o.acc the minterms of cubes[i] that no other cube and
// no don't-care covers, and reports whether there are any.
func (o *tableOracle) unique(cubes []Cube, i int) bool {
	acc := o.acc
	copy(acc, o.dc)
	for j, c := range cubes {
		if j != i {
			o.s.or(acc, c)
		}
	}
	low, care, val := o.s.cube(cubes[i])
	found := false
	for w := range acc {
		x := uint64(0)
		if w&care == val {
			x = low &^ acc[w]
		}
		acc[w] = x
		found = found || x != 0
	}
	return found
}

func (o *tableOracle) covered(cubes []Cube, i int) bool { return !o.unique(cubes, i) }

func (o *tableOracle) reduce(cubes []Cube, i int) (Cube, bool) {
	if !o.unique(cubes, i) {
		return nil, false
	}
	// A table variable keeps a literal when every unique minterm agrees
	// on it: below six, read the union of the words' bit positions; from
	// six up, the union and intersection of the nonzero words' indices.
	var bitsOr uint64
	wordsOr, wordsAnd := 0, o.s.words-1
	for w, x := range o.acc {
		if x != 0 {
			bitsOr |= x
			wordsOr |= w
			wordsAnd &= w
		}
	}
	out := NewCube(len(cubes[i]))
	for j, v := range o.s.vars {
		var one, zero bool
		if j < 6 {
			lane := logic.RowWord(j, 0)
			one, zero = bitsOr&lane != 0, bitsOr&^lane != 0
		} else {
			one, zero = wordsOr>>(j-6)&1 != 0, wordsAnd>>(j-6)&1 == 0
		}
		switch {
		case one && !zero:
			out[v] = One
		case zero && !one:
			out[v] = Zero
		}
	}
	return out, true
}
