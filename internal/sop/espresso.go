package sop

import "fmt"

// MinimizeOptions controls the espresso-style minimization loop.
type MinimizeOptions struct {
	// DontCare is an optional don't-care cover: minterms the function may
	// take either value on.
	DontCare *Cover
}

// maxIterations bounds Minimize's expand/irredundant/reduce loop.
const maxIterations = 8

// Minimize runs an espresso-style EXPAND → IRREDUNDANT → REDUCE loop on the
// cover until the literal count stops improving. The result is a prime and
// irredundant cover of the same function (modulo don't-cares).
//
// Each step asks a set oracle one question per cube, and every answer is
// a function of minterm sets alone, so the result does not depend on how
// the oracle represents them. Covers whose support (the variables some
// cube of f or the don't-care set has a literal on) has at most
// MaxTableVars variables are answered on bit-packed truth tables over that
// support; wider ones by the cube-list recursion (Complement, CoversCube).
func Minimize(f *Cover, opts MinimizeOptions) (*Cover, error) {
	dc := opts.DontCare
	if dc == nil {
		dc = NewCover(f.NumVars)
	} else if dc.NumVars != f.NumVars {
		return nil, fmt.Errorf("sop: don't-care cover has %d vars, function has %d", dc.NumVars, f.NumVars)
	}
	return minimize(f, newOracle(f, dc)), nil
}

// minimize is Minimize's loop over the set oracle o of f and its
// don't-care set.
func minimize(f *Cover, o oracle) *Cover {
	cur := f.SingleCubeContainment()
	bestLits := cur.NumLiterals() + 1
	for it := 0; it < maxIterations; it++ {
		cur = expand(cur, o)
		cur = irredundant(cur, o)
		l := cur.NumLiterals()
		if l >= bestLits {
			break
		}
		bestLits = l
		cur = reduce(cur, o)
	}
	// Finish on an expanded, irredundant cover.
	cur = expand(cur, o)
	return irredundant(cur, o)
}

// oracle answers the three set tests of the minimization loop for a
// function f with don't-care set dc.
type oracle interface {
	// meetsOff reports whether cube c has a minterm outside f ∪ dc.
	meetsOff(c Cube) bool
	// covered reports whether the other cubes and dc cover cubes[i].
	covered(cubes []Cube, i int) bool
	// reduce returns the supercube of the minterms of cubes[i] that
	// neither the other cubes nor dc cover, and false when there are none.
	reduce(cubes []Cube, i int) (Cube, bool)
}

// newOracle returns the truth-table oracle when the support of f and dc
// fits a table, and the cube-list oracle otherwise.
func newOracle(f, dc *Cover) oracle {
	if vars := support(f.NumVars, f, dc); len(vars) <= MaxTableVars {
		return newTableOracle(vars, f, dc)
	}
	return newCubeOracle(f, dc)
}

// cubeOracle answers the set tests by unate recursion on cube lists.
type cubeOracle struct {
	off, dc *Cover
}

func newCubeOracle(f, dc *Cover) *cubeOracle {
	// OFF-set = complement(F ∪ D).
	onPlusDC := f.Clone()
	onPlusDC.Cubes = append(onPlusDC.Cubes, dc.Clone().Cubes...)
	return &cubeOracle{off: onPlusDC.Complement(), dc: dc}
}

func (o *cubeOracle) meetsOff(c Cube) bool {
	for _, k := range o.off.Cubes {
		if c.Distance(k) == 0 {
			return true
		}
	}
	return false
}

// rest returns the cover of every cube but cubes[i], plus dc.
func (o *cubeOracle) rest(cubes []Cube, i int) *Cover {
	rest := NewCover(o.dc.NumVars)
	for j, c := range cubes {
		if j != i {
			rest.Cubes = append(rest.Cubes, c)
		}
	}
	rest.Cubes = append(rest.Cubes, o.dc.Cubes...)
	return rest
}

func (o *cubeOracle) covered(cubes []Cube, i int) bool {
	return o.rest(cubes, i).CoversCube(cubes[i])
}

func (o *cubeOracle) reduce(cubes []Cube, i int) (Cube, bool) {
	// Unique part of c: c ∩ complement(rest), then take its supercube.
	restCompl := o.rest(cubes, i).Complement()
	cAsCover := NewCover(o.dc.NumVars)
	cAsCover.Cubes = append(cAsCover.Cubes, cubes[i])
	unique := cAsCover.Intersect(restCompl)
	if unique.IsEmpty() {
		return nil, false
	}
	sc := unique.Cubes[0]
	for _, u := range unique.Cubes[1:] {
		sc = sc.Supercube(u)
	}
	return sc, true
}

// shallowClone copies the cube list but shares the cubes: the loop
// replaces cubes and never writes into one it did not just make.
func (cv *Cover) shallowClone() *Cover {
	return &Cover{NumVars: cv.NumVars, Cubes: append([]Cube(nil), cv.Cubes...)}
}

// expand raises literals of each cube to dashes while the cube stays
// disjoint from the OFF-set, making each cube prime; covered cubes are then
// dropped.
func expand(f *Cover, o oracle) *Cover {
	out := NewCover(f.NumVars)
	for _, c := range f.Cubes {
		e := c.Clone()
		for v := 0; v < f.NumVars; v++ {
			if e[v] == Dash {
				continue
			}
			saved := e[v]
			e[v] = Dash
			if o.meetsOff(e) {
				e[v] = saved
			}
		}
		out.Cubes = append(out.Cubes, e)
	}
	return out.SingleCubeContainment()
}

// irredundant removes, in cover order, each cube covered by the rest of
// the cover plus the don't-care set.
func irredundant(f *Cover, o oracle) *Cover {
	cur := f.shallowClone()
	for i := 0; i < len(cur.Cubes); {
		if o.covered(cur.Cubes, i) {
			cur.Cubes = append(cur.Cubes[:i], cur.Cubes[i+1:]...)
		} else {
			i++
		}
	}
	return cur
}

// reduce shrinks each cube, in cover order, to the smallest cube that
// still covers the part of the ON-set no other cube covers, opening room
// for the next expand to find different primes. A cube with no such part
// is left for irredundant to drop.
func reduce(f *Cover, o oracle) *Cover {
	cur := f.shallowClone()
	for i := range cur.Cubes {
		if sc, ok := o.reduce(cur.Cubes, i); ok {
			cur.Cubes[i] = sc
		}
	}
	return cur
}
