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
func Minimize(f *Cover, opts MinimizeOptions) (*Cover, error) {
	dc := opts.DontCare
	if dc == nil {
		dc = NewCover(f.NumVars)
	} else if dc.NumVars != f.NumVars {
		return nil, fmt.Errorf("sop: don't-care cover has %d vars, function has %d", dc.NumVars, f.NumVars)
	}
	// OFF-set = complement(F ∪ D).
	onPlusDC := f.Clone()
	onPlusDC.Cubes = append(onPlusDC.Cubes, dc.Clone().Cubes...)
	off := onPlusDC.Complement()

	cur := f.Clone().SingleCubeContainment()
	bestLits := cur.NumLiterals() + 1
	for it := 0; it < maxIterations; it++ {
		cur = Expand(cur, off)
		cur = Irredundant(cur, dc)
		l := cur.NumLiterals()
		if l >= bestLits {
			break
		}
		bestLits = l
		cur = Reduce(cur, dc)
	}
	// Finish on an expanded, irredundant cover.
	cur = Expand(cur, off)
	cur = Irredundant(cur, dc)
	return cur, nil
}

// Expand raises literals of each cube to dashes while the cube stays
// disjoint from the OFF-set, making each cube prime; covered cubes are then
// dropped.
func Expand(f, off *Cover) *Cover {
	out := NewCover(f.NumVars)
	for _, c := range f.Cubes {
		e := c.Clone()
		for v := 0; v < f.NumVars; v++ {
			if e[v] == Dash {
				continue
			}
			saved := e[v]
			e[v] = Dash
			if intersectsCover(e, off) {
				e[v] = saved
			}
		}
		out.Cubes = append(out.Cubes, e)
	}
	return out.SingleCubeContainment()
}

func intersectsCover(c Cube, cv *Cover) bool {
	for _, k := range cv.Cubes {
		if c.Distance(k) == 0 {
			return true
		}
	}
	return false
}

// Irredundant removes cubes covered by the rest of the cover plus the
// don't-care set. Cubes are considered largest-first so the most redundant
// specific cubes go first.
func Irredundant(f, dc *Cover) *Cover {
	cur := f.Clone()
	for i := 0; i < len(cur.Cubes); {
		rest := NewCover(cur.NumVars)
		for j, c := range cur.Cubes {
			if j != i {
				rest.Cubes = append(rest.Cubes, c)
			}
		}
		if dc != nil {
			rest.Cubes = append(rest.Cubes, dc.Cubes...)
		}
		if rest.CoversCube(cur.Cubes[i]) {
			cur.Cubes = append(cur.Cubes[:i], cur.Cubes[i+1:]...)
		} else {
			i++
		}
	}
	return cur
}

// Reduce shrinks each cube to the smallest cube that still covers the part
// of the ON-set no other cube covers, opening room for the next Expand to
// find different primes.
func Reduce(f, dc *Cover) *Cover {
	cur := f.Clone()
	for i, c := range cur.Cubes {
		rest := NewCover(cur.NumVars)
		for j, k := range cur.Cubes {
			if j != i {
				rest.Cubes = append(rest.Cubes, k)
			}
		}
		if dc != nil {
			rest.Cubes = append(rest.Cubes, dc.Cubes...)
		}
		// Unique part of c: c ∩ complement(rest), then take its supercube.
		restCompl := rest.Complement()
		cAsCover := NewCover(cur.NumVars)
		cAsCover.Cubes = append(cAsCover.Cubes, c)
		unique := cAsCover.Intersect(restCompl)
		if unique.IsEmpty() {
			continue // fully redundant; Irredundant will drop it
		}
		sc := unique.Cubes[0]
		for _, u := range unique.Cubes[1:] {
			sc = sc.Supercube(u)
		}
		cur.Cubes[i] = sc
	}
	return cur
}
