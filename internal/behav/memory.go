package behav

import "fmt"

// The survey (§IV.B, Catthoor et al. [14]) highlights two memory effects:
// accesses cost much more off-chip than on-chip, and bigger memories switch
// more capacitance per access. Control-flow transformations such as loop
// reordering change the access locality and hence the power. This file
// models both with a direct-mapped on-chip buffer in front of an off-chip
// memory.

// CacheConfig describes the on-chip buffer.
type CacheConfig struct {
	// Words is the total on-chip capacity in words (power of two).
	Words int
	// LineWords is the fetch granularity (power of two).
	LineWords int
	// OnChipEnergy is the energy per on-chip access (pJ).
	OnChipEnergy float64
	// OffChipEnergy is the energy per off-chip word transferred (pJ) —
	// typically an order of magnitude larger.
	OffChipEnergy float64
}

// DefaultCache returns a small 1995-flavour on-chip buffer.
func DefaultCache() CacheConfig {
	return CacheConfig{Words: 256, LineWords: 8, OnChipEnergy: 1.0, OffChipEnergy: 20.0}
}

// MemoryStats aggregates one trace simulation.
type MemoryStats struct {
	Accesses, Hits, Misses int
	EnergyPJ               float64
}

// SimulateTrace runs a word-address trace through a direct-mapped cache of
// the given configuration and returns access counts and energy: every
// access costs OnChipEnergy; every miss additionally transfers LineWords
// words off-chip.
func SimulateTrace(cfg CacheConfig, trace []int) (MemoryStats, error) {
	if cfg.Words <= 0 || cfg.LineWords <= 0 || cfg.Words%cfg.LineWords != 0 {
		return MemoryStats{}, fmt.Errorf("behav: bad cache config %+v", cfg)
	}
	lines := cfg.Words / cfg.LineWords
	tags := make([]int, lines)
	valid := make([]bool, lines)
	var st MemoryStats
	for _, addr := range trace {
		if addr < 0 {
			return st, fmt.Errorf("behav: negative address %d", addr)
		}
		line := addr / cfg.LineWords
		idx := line % lines
		st.Accesses++
		st.EnergyPJ += cfg.OnChipEnergy
		if valid[idx] && tags[idx] == line {
			st.Hits++
			continue
		}
		st.Misses++
		st.EnergyPJ += cfg.OffChipEnergy * float64(cfg.LineWords)
		tags[idx] = line
		valid[idx] = true
	}
	return st, nil
}

// TraversalOrder selects the loop nest order for matrix access traces.
type TraversalOrder int

// Traversal orders.
const (
	RowMajor TraversalOrder = iota // innermost loop walks within a row (unit stride)
	ColMajor                       // innermost loop walks down a column (stride = cols)
)

// MatrixTrace generates the word-address trace of reading every element of
// a rows×cols row-major matrix under the given loop order.
func MatrixTrace(rows, cols int, order TraversalOrder) ([]int, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("behav: matrix %dx%d", rows, cols)
	}
	var out []int
	switch order {
	case RowMajor:
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				out = append(out, i*cols+j)
			}
		}
	case ColMajor:
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				out = append(out, i*cols+j)
			}
		}
	default:
		return nil, fmt.Errorf("behav: unknown order %d", order)
	}
	return out, nil
}
