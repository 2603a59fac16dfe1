package sw

import "fmt"

// asm is a tiny label-patching assembler for the kernel builders.
type asm struct {
	prog   Program
	labels map[string]int
	fixups map[int]string
}

func newAsm() *asm {
	return &asm{labels: map[string]int{}, fixups: map[int]string{}}
}

func (a *asm) emit(in Instr) { a.prog = append(a.prog, in) }

func (a *asm) label(name string) { a.labels[name] = len(a.prog) }

func (a *asm) jump(op Opcode, rs, rt int, label string) {
	a.fixups[len(a.prog)] = label
	a.emit(Instr{Op: op, Rs: rs, Rt: rt})
}

func (a *asm) finish() (Program, error) {
	for idx, label := range a.fixups {
		pos, ok := a.labels[label]
		if !ok {
			return nil, fmt.Errorf("sw: undefined label %q", label)
		}
		a.prog[idx].Target = pos
	}
	return a.prog, nil
}

// SumArrayReg builds a kernel summing mem[0..n-1] with the accumulator in
// a register, storing the result at mem[n].
func SumArrayReg(n int) (Program, error) {
	a := newAsm()
	a.emit(Instr{Op: LI, Rd: 1, Imm: 0})        // ptr
	a.emit(Instr{Op: LI, Rd: 2, Imm: 0})        // acc
	a.emit(Instr{Op: LI, Rd: 3, Imm: int32(n)}) // limit
	a.emit(Instr{Op: LI, Rd: 6, Imm: 1})
	a.label("loop")
	a.jump(BEQ, 1, 3, "done")
	a.emit(Instr{Op: LW, Rd: 4, Rs: 1, Imm: 0})
	a.emit(Instr{Op: ADD, Rd: 2, Rs: 2, Rt: 4})
	a.emit(Instr{Op: ADD, Rd: 1, Rs: 1, Rt: 6})
	a.jump(JMP, 0, 0, "loop")
	a.label("done")
	a.emit(Instr{Op: SW, Rs: 3, Rt: 2, Imm: 0}) // mem[n] = acc
	a.emit(Instr{Op: HALT})
	return a.finish()
}

// SumArrayMem is the same computation with the accumulator spilled to
// memory (mem[n+1]) every iteration — the register-allocation comparison
// of [45]: memory operands are much more expensive than register operands.
func SumArrayMem(n int) (Program, error) {
	a := newAsm()
	a.emit(Instr{Op: LI, Rd: 1, Imm: 0})
	a.emit(Instr{Op: LI, Rd: 3, Imm: int32(n)})
	a.emit(Instr{Op: LI, Rd: 6, Imm: 1})
	a.emit(Instr{Op: LI, Rd: 7, Imm: int32(n + 1)}) // &acc
	a.emit(Instr{Op: LI, Rd: 2, Imm: 0})
	a.emit(Instr{Op: SW, Rs: 7, Rt: 2, Imm: 0}) // acc = 0
	a.label("loop")
	a.jump(BEQ, 1, 3, "done")
	a.emit(Instr{Op: LW, Rd: 4, Rs: 1, Imm: 0})
	a.emit(Instr{Op: LW, Rd: 2, Rs: 7, Imm: 0}) // reload acc
	a.emit(Instr{Op: ADD, Rd: 2, Rs: 2, Rt: 4})
	a.emit(Instr{Op: SW, Rs: 7, Rt: 2, Imm: 0}) // spill acc
	a.emit(Instr{Op: ADD, Rd: 1, Rs: 1, Rt: 6})
	a.jump(JMP, 0, 0, "loop")
	a.label("done")
	a.emit(Instr{Op: LW, Rd: 2, Rs: 7, Imm: 0})
	a.emit(Instr{Op: SW, Rs: 3, Rt: 2, Imm: 0})
	a.emit(Instr{Op: HALT})
	return a.finish()
}

// SumArrayUnrolled sums mem[0..n-1] (n divisible by 4) with the loop body
// unrolled four times — the faster-code-is-lower-energy comparison: fewer
// branches and pointer updates per element.
func SumArrayUnrolled(n int) (Program, error) {
	if n%4 != 0 {
		return nil, fmt.Errorf("sw: unrolled sum needs n divisible by 4, got %d", n)
	}
	a := newAsm()
	a.emit(Instr{Op: LI, Rd: 1, Imm: 0})
	a.emit(Instr{Op: LI, Rd: 2, Imm: 0})
	a.emit(Instr{Op: LI, Rd: 3, Imm: int32(n)})
	a.emit(Instr{Op: LI, Rd: 6, Imm: 4})
	a.label("loop")
	a.jump(BEQ, 1, 3, "done")
	for k := 0; k < 4; k++ {
		a.emit(Instr{Op: LW, Rd: 4, Rs: 1, Imm: int32(k)})
		a.emit(Instr{Op: ADD, Rd: 2, Rs: 2, Rt: 4})
	}
	a.emit(Instr{Op: ADD, Rd: 1, Rs: 1, Rt: 6})
	a.jump(JMP, 0, 0, "loop")
	a.label("done")
	a.emit(Instr{Op: SW, Rs: 3, Rt: 2, Imm: 0})
	a.emit(Instr{Op: HALT})
	return a.finish()
}

// LinearSearch scans mem[0..n-1] for key and stores the found index (or
// -1) at mem[n].
func LinearSearch(n int, key int32) (Program, error) {
	a := newAsm()
	a.emit(Instr{Op: LI, Rd: 1, Imm: 0})
	a.emit(Instr{Op: LI, Rd: 3, Imm: int32(n)})
	a.emit(Instr{Op: LI, Rd: 6, Imm: 1})
	a.emit(Instr{Op: LI, Rd: 7, Imm: key})
	a.label("loop")
	a.jump(BEQ, 1, 3, "notfound")
	a.emit(Instr{Op: LW, Rd: 4, Rs: 1, Imm: 0})
	a.jump(BEQ, 4, 7, "found")
	a.emit(Instr{Op: ADD, Rd: 1, Rs: 1, Rt: 6})
	a.jump(JMP, 0, 0, "loop")
	a.label("notfound")
	a.emit(Instr{Op: LI, Rd: 8, Imm: -1})
	a.jump(JMP, 0, 0, "store")
	a.label("found")
	a.emit(Instr{Op: MOV, Rd: 8, Rs: 1})
	a.label("store")
	a.emit(Instr{Op: SW, Rs: 3, Rt: 8, Imm: 0})
	a.emit(Instr{Op: HALT})
	return a.finish()
}

// BinarySearch searches the sorted array mem[0..n-1] for key and stores
// the found index (or -1) at mem[n] — the algorithm-choice comparison of
// Ong and Yan [49] against LinearSearch.
func BinarySearch(n int, key int32) (Program, error) {
	a := newAsm()
	a.emit(Instr{Op: LI, Rd: 0, Imm: 0}) // zero
	a.emit(Instr{Op: LI, Rd: 1, Imm: 0}) // lo
	a.emit(Instr{Op: LI, Rd: 2, Imm: int32(n)})
	a.emit(Instr{Op: LI, Rd: 6, Imm: 1})
	a.emit(Instr{Op: LI, Rd: 7, Imm: key})
	a.label("loop")
	a.jump(BEQ, 1, 2, "notfound")
	a.emit(Instr{Op: ADD, Rd: 3, Rs: 1, Rt: 2})
	a.emit(Instr{Op: SHR, Rd: 3, Rs: 3, Imm: 1}) // mid
	a.emit(Instr{Op: LW, Rd: 4, Rs: 3, Imm: 0})
	a.jump(BEQ, 4, 7, "found")
	a.emit(Instr{Op: SUB, Rd: 5, Rs: 4, Rt: 7})
	a.emit(Instr{Op: SHR, Rd: 5, Rs: 5, Imm: 31}) // 1 if arr[mid] < key
	a.jump(BEQ, 5, 0, "upper")
	a.emit(Instr{Op: ADD, Rd: 1, Rs: 3, Rt: 6}) // lo = mid+1
	a.jump(JMP, 0, 0, "loop")
	a.label("upper")
	a.emit(Instr{Op: MOV, Rd: 2, Rs: 3}) // hi = mid
	a.jump(JMP, 0, 0, "loop")
	a.label("notfound")
	a.emit(Instr{Op: LI, Rd: 8, Imm: -1})
	a.jump(JMP, 0, 0, "store")
	a.label("found")
	a.emit(Instr{Op: MOV, Rd: 8, Rs: 3})
	a.label("store")
	a.emit(Instr{Op: LI, Rd: 9, Imm: int32(n)})
	a.emit(Instr{Op: SW, Rs: 9, Rt: 8, Imm: 0})
	a.emit(Instr{Op: HALT})
	return a.finish()
}

// DotProductBlock builds the straight-line body of a k-term dot product
// with operands preloaded into registers: r1..rk hold a_i, r5..r(4+k)
// hold b_i, each product lands in its own temp r(8+i), and the result
// accumulates into r14. The naive ordering alternates MUL and ADD — the
// worst case for DSP circuit-state overhead; because the temps are
// independent, ColdSchedule is free to group the multiplies, and PairMAC
// can fuse each MUL/ADD pair. k must be at most 4 to fit the register
// file.
func DotProductBlock(k int) ([]Instr, error) {
	if k < 1 || k > 4 {
		return nil, fmt.Errorf("sw: dot product size %d out of [1,4]", k)
	}
	var block []Instr
	for i := 0; i < k; i++ {
		block = append(block,
			Instr{Op: MUL, Rd: 9 + i, Rs: 1 + i, Rt: 5 + i},
			Instr{Op: ADD, Rd: 14, Rs: 14, Rt: 9 + i},
		)
	}
	return block, nil
}

// RunBlock executes a branch-free block (appending HALT) on a CPU with
// preloaded registers, returning the final register file — used to verify
// that scheduling and pairing preserve semantics.
func RunBlock(block []Instr, regs [NumRegs]int32, memWords int) ([NumRegs]int32, RunStats, error) {
	p := append(append(Program{}, block...), Instr{Op: HALT})
	cpu := NewCPU(memWords)
	cpu.Reg = regs
	st, err := cpu.Run(p, 10000)
	return cpu.Reg, st, err
}
