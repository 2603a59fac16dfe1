// Package sop implements two-level (sum-of-products) logic: cubes, covers,
// tautology checking, complementation, an espresso-style EXPAND / REDUCE /
// IRREDUNDANT minimization loop, and the algebraic machinery of multilevel
// synthesis — weak division, kernel extraction, and factoring — including
// the activity-weighted kernel selection of Roy and Prasad [35] that the
// survey cites for power-targeted technology-independent optimization.
package sop

import (
	"fmt"
	"strings"
)

// Lit is one position of a cube: the state of one variable.
type Lit byte

// Literal values.
const (
	Zero Lit = iota // variable complemented in this product term
	One             // variable true in this product term
	Dash            // variable absent
)

// Cube is a product term over n variables, one Lit per variable.
type Cube []Lit

// NewCube returns a cube of n dashes (the universal cube).
func NewCube(n int) Cube {
	c := make(Cube, n)
	for i := range c {
		c[i] = Dash
	}
	return c
}

// ParseCube converts a string like "1-0" into a cube.
func ParseCube(s string) (Cube, error) {
	c := make(Cube, len(s))
	for i, ch := range s {
		switch ch {
		case '0':
			c[i] = Zero
		case '1':
			c[i] = One
		case '-':
			c[i] = Dash
		default:
			return nil, fmt.Errorf("sop: bad cube character %q", ch)
		}
	}
	return c, nil
}

// String renders the cube in 0/1/- notation.
func (c Cube) String() string {
	var b strings.Builder
	for _, l := range c {
		switch l {
		case Zero:
			b.WriteByte('0')
		case One:
			b.WriteByte('1')
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}

// Clone returns a copy of the cube.
func (c Cube) Clone() Cube { return append(Cube(nil), c...) }

// NumLiterals counts the non-dash positions.
func (c Cube) NumLiterals() int {
	n := 0
	for _, l := range c {
		if l != Dash {
			n++
		}
	}
	return n
}

// Contains reports whether c covers every minterm of d (d ⊆ c).
func (c Cube) Contains(d Cube) bool {
	for i, l := range c {
		if l != Dash && l != d[i] {
			return false
		}
	}
	return true
}

// ContainsMinterm reports whether the cube covers the given minterm
// (assignment of all variables).
func (c Cube) ContainsMinterm(m []bool) bool {
	for i, l := range c {
		if l == Dash {
			continue
		}
		if (l == One) != m[i] {
			return false
		}
	}
	return true
}

// Intersect returns the intersection cube and true, or nil and false if
// the cubes are disjoint.
func (c Cube) Intersect(d Cube) (Cube, bool) {
	out := make(Cube, len(c))
	for i := range c {
		switch {
		case c[i] == Dash:
			out[i] = d[i]
		case d[i] == Dash || d[i] == c[i]:
			out[i] = c[i]
		default:
			return nil, false
		}
	}
	return out, true
}

// Distance counts variables in which the cubes have opposing literals.
// Distance 0 means they intersect; distance 1 means they can be consensus-
// merged.
func (c Cube) Distance(d Cube) int {
	n := 0
	for i := range c {
		if c[i] != Dash && d[i] != Dash && c[i] != d[i] {
			n++
		}
	}
	return n
}

// Supercube returns the smallest cube containing both c and d.
func (c Cube) Supercube(d Cube) Cube {
	out := make(Cube, len(c))
	for i := range c {
		if c[i] == d[i] {
			out[i] = c[i]
		} else {
			out[i] = Dash
		}
	}
	return out
}

// Cofactor returns the cofactor of c with respect to variable v taking the
// given literal value (One or Zero), and whether it is non-empty.
// The resulting cube has a dash at v.
func (c Cube) Cofactor(v int, val Lit) (Cube, bool) {
	if c[v] != Dash && c[v] != val {
		return nil, false
	}
	out := c.Clone()
	out[v] = Dash
	return out, true
}
