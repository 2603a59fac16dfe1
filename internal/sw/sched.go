package sw

import "fmt"

// This file implements cold scheduling [40]: reordering the instructions
// of a basic block (no branches) to minimize the summed inter-instruction
// overhead of a power model, subject to data dependences. Experiments in
// [46] found this matters little on large CPUs (small uniform overheads)
// but pays on small DSPs [23] — both regimes are captured by the two
// PowerModels.

// deps returns, for each instruction index in the block, the set of
// earlier indices it depends on (RAW, WAR and WAW through registers, and
// a conservative total order between memory operations).
func deps(block []Instr) [][]int {
	out := make([][]int, len(block))
	lastWrite := map[int]int{}   // reg -> index
	lastReads := map[int][]int{} // reg -> indices
	lastMem := -1
	for i, in := range block {
		addDep := func(j int) {
			if j >= 0 && j != i {
				out[i] = append(out[i], j)
			}
		}
		reads, writes := regUse(in)
		for _, r := range reads {
			if j, ok := lastWrite[r]; ok {
				addDep(j) // RAW
			}
		}
		for _, w := range writes {
			if j, ok := lastWrite[w]; ok {
				addDep(j) // WAW
			}
			for _, j := range lastReads[w] {
				addDep(j) // WAR
			}
		}
		if ClassOf(in.Op) == ClassMem {
			addDep(lastMem)
			lastMem = i
		}
		for _, r := range reads {
			lastReads[r] = append(lastReads[r], i)
		}
		for _, w := range writes {
			lastWrite[w] = i
			lastReads[w] = nil
		}
	}
	return out
}

// regUse returns the registers an instruction reads and writes.
func regUse(in Instr) (reads, writes []int) {
	switch in.Op {
	case NOP, HALT, JMP:
	case LI:
		writes = []int{in.Rd}
	case MOV, SHL, SHR:
		reads = []int{in.Rs}
		writes = []int{in.Rd}
	case LW:
		reads = []int{in.Rs}
		writes = []int{in.Rd}
	case SW:
		reads = []int{in.Rs, in.Rt}
	case BEQ, BNE:
		reads = []int{in.Rs, in.Rt}
	case MAC:
		reads = []int{in.Rd, in.Rs, in.Rt}
		writes = []int{in.Rd}
	default: // three-register ALU/MUL
		reads = []int{in.Rs, in.Rt}
		writes = []int{in.Rd}
	}
	return
}

// ColdSchedule reorders a basic block to minimize summed overhead under
// the model, using greedy list scheduling: at each position, among ready
// instructions pick the one with the lowest transition overhead from the
// previously issued instruction (ties by original order, preserving
// determinism). The block must contain no control flow.
func ColdSchedule(block []Instr, m *PowerModel) ([]Instr, error) {
	for _, in := range block {
		if ClassOf(in.Op) == ClassBranch || in.Op == HALT {
			return nil, fmt.Errorf("sw: cold scheduling needs a branch-free block, found %s", in.Op)
		}
	}
	d := deps(block)
	remaining := make(map[int]bool, len(block))
	for i := range block {
		remaining[i] = true
	}
	done := make([]bool, len(block))
	var out []Instr
	prevValid := false
	var prev Class
	for len(out) < len(block) {
		best := -1
		bestCost := 0.0
		for i := range block {
			if !remaining[i] {
				continue
			}
			ready := true
			for _, j := range d[i] {
				if !done[j] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			cost := 0.0
			if prevValid {
				cost = m.Overhead[prev][ClassOf(block[i].Op)]
			}
			if best < 0 || cost < bestCost-1e-12 {
				best, bestCost = i, cost
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("sw: dependence cycle in block")
		}
		out = append(out, block[best])
		done[best] = true
		delete(remaining, best)
		prev, prevValid = ClassOf(block[best].Op), true
	}
	return out, nil
}

// PairMAC performs the DSP instruction-pairing peephole of [23]: a MUL
// writing a temp register immediately followed by ADD rd, rd, temp (or
// ADD rd, temp, rd) where the temp dies is fused into one MAC rd, rs, rt,
// halving the multiplier-ALU round trip. The rewrite is applied
// repeatedly across the block.
func PairMAC(block []Instr) []Instr {
	out := append([]Instr(nil), block...)
	for i := 0; i+1 < len(out); i++ {
		m, a := out[i], out[i+1]
		if m.Op != MUL || a.Op != ADD {
			continue
		}
		temp := m.Rd
		var acc int
		switch {
		case a.Rs == temp && a.Rd == a.Rt:
			acc = a.Rt
		case a.Rt == temp && a.Rd == a.Rs:
			acc = a.Rs
		default:
			continue
		}
		if temp == acc {
			continue
		}
		// temp must not be read later (dead after the ADD).
		dead := true
		for j := i + 2; j < len(out); j++ {
			reads, writes := regUse(out[j])
			for _, r := range reads {
				if r == temp {
					dead = false
				}
			}
			stop := false
			for _, w := range writes {
				if w == temp {
					stop = true
				}
			}
			if !dead || stop {
				break
			}
		}
		if !dead {
			continue
		}
		out[i] = Instr{Op: MAC, Rd: acc, Rs: m.Rs, Rt: m.Rt}
		out = append(out[:i+1], out[i+2:]...)
	}
	return out
}
