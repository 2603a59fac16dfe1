package sop

import (
	"fmt"
	"strings"
)

// Cover is a sum of product terms over a fixed number of variables.
type Cover struct {
	NumVars int
	Cubes   []Cube
}

// NewCover returns an empty (constant-false) cover over n variables.
func NewCover(n int) *Cover { return &Cover{NumVars: n} }

// Universe returns the constant-true cover over n variables.
func Universe(n int) *Cover { return &Cover{NumVars: n, Cubes: []Cube{NewCube(n)}} }

// ParseCover builds a cover from rows of 0/1/- strings.
func ParseCover(n int, rows ...string) (*Cover, error) {
	cv := NewCover(n)
	for _, r := range rows {
		c, err := ParseCube(r)
		if err != nil {
			return nil, err
		}
		if len(c) != n {
			return nil, fmt.Errorf("sop: cube %q has %d vars, cover has %d", r, len(c), n)
		}
		cv.Cubes = append(cv.Cubes, c)
	}
	return cv, nil
}

// Clone returns a deep copy.
func (cv *Cover) Clone() *Cover {
	out := NewCover(cv.NumVars)
	for _, c := range cv.Cubes {
		out.Cubes = append(out.Cubes, c.Clone())
	}
	return out
}

// String renders the cover as newline-separated cubes.
func (cv *Cover) String() string {
	rows := make([]string, len(cv.Cubes))
	for i, c := range cv.Cubes {
		rows[i] = c.String()
	}
	return strings.Join(rows, "\n")
}

// NumLiterals is the total literal count — the classic area metric.
func (cv *Cover) NumLiterals() int {
	n := 0
	for _, c := range cv.Cubes {
		n += c.NumLiterals()
	}
	return n
}

// IsEmpty reports whether the cover has no cubes (constant false).
func (cv *Cover) IsEmpty() bool { return len(cv.Cubes) == 0 }

// Eval evaluates the cover on a complete assignment.
func (cv *Cover) Eval(m []bool) bool {
	for _, c := range cv.Cubes {
		if c.ContainsMinterm(m) {
			return true
		}
	}
	return false
}

// Cofactor returns the cover cofactored on variable v = val (Shannon).
func (cv *Cover) Cofactor(v int, val Lit) *Cover {
	out := NewCover(cv.NumVars)
	for _, c := range cv.Cubes {
		if cc, ok := c.Cofactor(v, val); ok {
			out.Cubes = append(out.Cubes, cc)
		}
	}
	return out
}

// CofactorCube returns the cover cofactored against a cube (the cubes of
// cv that intersect d, with d's literals raised to dash).
func (cv *Cover) CofactorCube(d Cube) *Cover {
	out := NewCover(cv.NumVars)
	for _, c := range cv.Cubes {
		if c.Distance(d) > 0 {
			continue
		}
		cc := c.Clone()
		for i := range cc {
			if d[i] != Dash {
				cc[i] = Dash
			}
		}
		out.Cubes = append(out.Cubes, cc)
	}
	return out
}

// mostBinate picks the variable appearing in both polarities in the most
// cubes — the standard splitting heuristic for unate recursion. Returns -1
// if the cover is unate in every variable.
func (cv *Cover) mostBinate() int {
	best, bestCount := -1, 0
	for v := 0; v < cv.NumVars; v++ {
		zeros, ones := 0, 0
		for _, c := range cv.Cubes {
			switch c[v] {
			case Zero:
				zeros++
			case One:
				ones++
			}
		}
		if zeros > 0 && ones > 0 && zeros+ones > bestCount {
			best, bestCount = v, zeros+ones
		}
	}
	return best
}

// Tautology reports whether the cover covers every minterm.
func (cv *Cover) Tautology() bool {
	// Fast exits.
	hasUniversal := false
	for _, c := range cv.Cubes {
		if c.NumLiterals() == 0 {
			hasUniversal = true
			break
		}
	}
	if hasUniversal {
		return true
	}
	if len(cv.Cubes) == 0 {
		return false // constant false, over any number of variables
	}
	v := cv.mostBinate()
	if v < 0 {
		// Unate cover: tautology iff it contains the universal cube, which
		// we already checked.
		// Exception: variables may appear in only one polarity but the
		// cover can still be a tautology only via a row of dashes.
		return false
	}
	return cv.Cofactor(v, Zero).Tautology() && cv.Cofactor(v, One).Tautology()
}

// CoversCube reports whether the cover covers every minterm of cube c.
func (cv *Cover) CoversCube(c Cube) bool {
	return cv.CofactorCube(c).Tautology()
}

// Covers reports whether cv covers every cube of other.
func (cv *Cover) Covers(other *Cover) bool {
	for _, c := range other.Cubes {
		if !cv.CoversCube(c) {
			return false
		}
	}
	return true
}

// Equivalent reports whether two covers denote the same function.
func (cv *Cover) Equivalent(other *Cover) bool {
	return cv.Covers(other) && other.Covers(cv)
}

// Complement computes the complement cover by Shannon recursion.
func (cv *Cover) Complement() *Cover {
	// Terminal cases.
	if len(cv.Cubes) == 0 {
		return Universe(cv.NumVars)
	}
	for _, c := range cv.Cubes {
		if c.NumLiterals() == 0 {
			return NewCover(cv.NumVars)
		}
	}
	if len(cv.Cubes) == 1 {
		// Complement of a single cube: De Morgan.
		out := NewCover(cv.NumVars)
		c := cv.Cubes[0]
		for i, l := range c {
			if l == Dash {
				continue
			}
			nc := NewCube(cv.NumVars)
			if l == One {
				nc[i] = Zero
			} else {
				nc[i] = One
			}
			out.Cubes = append(out.Cubes, nc)
		}
		return out
	}
	v := cv.mostBinate()
	if v < 0 {
		// Unate: split on the most frequent variable instead.
		best, bestCount := 0, -1
		for i := 0; i < cv.NumVars; i++ {
			count := 0
			for _, c := range cv.Cubes {
				if c[i] != Dash {
					count++
				}
			}
			if count > bestCount {
				best, bestCount = i, count
			}
		}
		v = best
	}
	f0 := cv.Cofactor(v, Zero).Complement()
	f1 := cv.Cofactor(v, One).Complement()
	out := NewCover(cv.NumVars)
	for _, c := range f0.Cubes {
		nc := c.Clone()
		if nc[v] == Dash {
			nc[v] = Zero
		}
		out.Cubes = append(out.Cubes, nc)
	}
	for _, c := range f1.Cubes {
		nc := c.Clone()
		if nc[v] == Dash {
			nc[v] = One
		}
		out.Cubes = append(out.Cubes, nc)
	}
	return out.SingleCubeContainment()
}

// SingleCubeContainment removes cubes contained in another single cube and
// returns the (new) cover. Cubes are kept largest first (fewest literals),
// in cover order among equal sizes.
func (cv *Cover) SingleCubeContainment() *Cover {
	// A stable counting sort by literal count: linear, where a comparison
	// sort was a tenth of the don't-care pass.
	lits := make([]int, len(cv.Cubes))
	most := 0
	for i, c := range cv.Cubes {
		lits[i] = c.NumLiterals()
		most = max(most, lits[i])
	}
	start := make([]int, most+2)
	for _, l := range lits {
		start[l+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	sorted := make([]Cube, len(cv.Cubes))
	for i, c := range cv.Cubes {
		sorted[start[lits[i]]] = c
		start[lits[i]]++
	}
	// Filter in place: a kept cube is written at or before its own index.
	out := &Cover{NumVars: cv.NumVars, Cubes: sorted[:0]}
	for _, c := range sorted {
		contained := false
		for _, k := range out.Cubes {
			if k.Contains(c) {
				contained = true
				break
			}
		}
		if !contained {
			out.Cubes = append(out.Cubes, c)
		}
	}
	return out
}

// Intersect returns the product of two covers.
func (cv *Cover) Intersect(other *Cover) *Cover {
	out := NewCover(cv.NumVars)
	for _, a := range cv.Cubes {
		for _, b := range other.Cubes {
			if c, ok := a.Intersect(b); ok {
				out.Cubes = append(out.Cubes, c)
			}
		}
	}
	return out.SingleCubeContainment()
}
