// Package encode implements state assignment for low power (survey
// §III.C.1). The objective, following Roy/Prasad [35] and Tsui et al.
// [47], is weighted switching activity: states connected by
// high-probability transitions should receive codes at small Hamming
// distance, reducing flip-flop output toggles. Encoders provided:
// minimal-bit binary, Gray-ordered, one-hot, a greedy constructive
// assignment, and simulated annealing; Synthesize turns an encoded machine
// into a gate-level network (espresso-minimized next-state and output
// logic plus D flip-flops) so the claimed savings can be measured on real
// logic with internal/power.
package encode

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"repro/internal/stg"
)

// Encoding assigns each state a binary code of Bits bits.
type Encoding struct {
	Bits int
	Code map[string]uint
}

// minBits is the minimal code width for n states.
func minBits(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// MinimalBinary assigns sequential binary codes in state declaration
// order — the area-style baseline.
func MinimalBinary(g *stg.STG) Encoding {
	e := Encoding{Bits: minBits(len(g.States)), Code: make(map[string]uint)}
	for i, s := range g.States {
		e.Code[s] = uint(i)
	}
	return e
}

// Gray assigns codes in Gray-count order of declaration, so consecutive
// declarations differ in one bit — effective for counter-like machines.
func Gray(g *stg.STG) Encoding {
	e := Encoding{Bits: minBits(len(g.States)), Code: make(map[string]uint)}
	for i, s := range g.States {
		e.Code[s] = uint(i) ^ (uint(i) >> 1)
	}
	return e
}

// OneHot assigns one flip-flop per state.
func OneHot(g *stg.STG) Encoding {
	e := Encoding{Bits: len(g.States), Code: make(map[string]uint)}
	for i, s := range g.States {
		e.Code[s] = 1 << uint(i)
	}
	return e
}

// WeightedActivity is the encoding cost: expected flip-flop toggles per
// cycle, Σ over state pairs of transition weight times Hamming distance of
// the codes.
func WeightedActivity(g *stg.STG, e Encoding) float64 {
	w := g.TransitionWeights()
	total := 0.0
	for i, si := range g.States {
		for j, sj := range g.States {
			if w[i][j] == 0 {
				continue
			}
			total += w[i][j] * float64(bits.OnesCount(e.Code[si]^e.Code[sj]))
		}
	}
	return total
}

// symWeights returns the transition weights summed over both directions:
// sym[i][j] = w[i][j] + w[j][i], the weight of the code distance between
// states i and j.
func symWeights(g *stg.STG) [][]float64 {
	w := g.TransitionWeights()
	sym := make([][]float64, len(w))
	for i := range sym {
		sym[i] = make([]float64, len(w))
		for j := range sym[i] {
			sym[i][j] = w[i][j] + w[j][i]
		}
	}
	return sym
}

// Greedy builds a minimal-bit encoding constructively: states are placed
// in order of their total transition weight; each takes the free code with
// the smallest weighted Hamming distance to already-placed neighbours.
func Greedy(g *stg.STG) Encoding {
	n := len(g.States)
	b := minBits(n)
	sym := symWeights(g)
	// Order states by total weight, heaviest first.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	weightOf := func(i int) float64 {
		t := 0.0
		for j := range sym[i] {
			t += sym[i][j]
		}
		return t
	}
	sort.SliceStable(order, func(a, b int) bool { return weightOf(order[a]) > weightOf(order[b]) })

	code := make([]int, n)
	for i := range code {
		code[i] = -1
	}
	usedCode := make([]bool, 1<<b)
	for _, s := range order {
		bestCode, bestCost := -1, math.Inf(1)
		for c := 0; c < 1<<b; c++ {
			if usedCode[c] {
				continue
			}
			cost := 0.0
			for j := 0; j < n; j++ {
				if code[j] >= 0 && sym[s][j] > 0 {
					cost += sym[s][j] * float64(bits.OnesCount(uint(c)^uint(code[j])))
				}
			}
			if cost < bestCost {
				bestCost, bestCode = cost, c
			}
		}
		code[s] = bestCode
		usedCode[bestCode] = true
	}
	e := Encoding{Bits: b, Code: make(map[string]uint)}
	for i, s := range g.States {
		e.Code[s] = uint(code[i])
	}
	return e
}

// AnnealOptions tunes the simulated-annealing encoder.
type AnnealOptions struct {
	Iterations int // default 20000
}

// The annealing temperature falls geometrically from startTemp to
// endTemp over the iterations.
const startTemp, endTemp = 1.0, 1e-3

// Anneal searches minimal-bit encodings by simulated annealing over code
// swaps and relocations, minimizing WeightedActivity.
func Anneal(g *stg.STG, r *rand.Rand, opts AnnealOptions) Encoding {
	if opts.Iterations <= 0 {
		opts.Iterations = 20000
	}
	n := len(g.States)
	b := minBits(n)
	space := 1 << b

	sym := symWeights(g)
	code := make([]uint, n)
	used := make(map[uint]int) // code -> state or -1
	start := Greedy(g)
	for i, s := range g.States {
		code[i] = start.Code[s] // Greedy uses minimal bits; fits in space
		used[code[i]] = i
	}
	cost := func() float64 {
		t := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if sym[i][j] > 0 {
					t += sym[i][j] * float64(bits.OnesCount(code[i]^code[j]))
				}
			}
		}
		return t
	}
	// swap exchanges two states' codes; it is its own inverse.
	swap := func(i, j int) {
		code[i], code[j] = code[j], code[i]
		used[code[i]] = i
		used[code[j]] = j
	}
	cur := cost()
	best := cur
	bestCode := append([]uint(nil), code...)
	for it := 0; it < opts.Iterations; it++ {
		frac := float64(it) / float64(opts.Iterations)
		temp := startTemp * math.Pow(endTemp/startTemp, frac)
		i := r.Intn(n)
		var revert func()
		if r.Intn(2) == 0 {
			// Relocate state i to a random (possibly used) code; if used,
			// swap.
			c := uint(r.Intn(space))
			if j, ok := used[c]; ok && j != i {
				swap(i, j)
				revert = func() { swap(i, j) }
			} else if !ok {
				old := code[i]
				delete(used, old)
				code[i] = c
				used[c] = i
				revert = func() {
					delete(used, c)
					code[i] = old
					used[old] = i
				}
			} else {
				continue
			}
		} else {
			j := r.Intn(n)
			if i == j {
				continue
			}
			swap(i, j)
			revert = func() { swap(i, j) }
		}
		next := cost()
		accept := next <= cur || r.Float64() < math.Exp((cur-next)/math.Max(temp, 1e-12))
		if accept {
			cur = next
			if cur < best {
				best = cur
				copy(bestCode, code)
			}
		} else {
			revert()
		}
	}
	e := Encoding{Bits: b, Code: make(map[string]uint)}
	for i, s := range g.States {
		e.Code[s] = bestCode[i]
	}
	return e
}

// Validate checks that the encoding covers all states with distinct codes
// that fit in Bits bits.
func (e Encoding) Validate(g *stg.STG) error {
	seen := make(map[uint]string)
	for _, s := range g.States {
		c, ok := e.Code[s]
		if !ok {
			return fmt.Errorf("encode: state %q has no code", s)
		}
		if c >= 1<<uint(e.Bits) {
			return fmt.Errorf("encode: code %#x of %q exceeds %d bits", c, s, e.Bits)
		}
		if prev, dup := seen[c]; dup {
			return fmt.Errorf("encode: states %q and %q share code %#x", prev, s, c)
		}
		seen[c] = s
	}
	return nil
}
