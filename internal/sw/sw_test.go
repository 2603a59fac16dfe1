package sw

import (
	"math/rand"
	"testing"
)

func arrayMem(n int, extra int, fill func(i int) int32) []int32 {
	mem := make([]int32, n+extra)
	for i := 0; i < n; i++ {
		mem[i] = fill(i)
	}
	return mem
}

func TestSumArrayRegCorrect(t *testing.T) {
	const n = 20
	mem := arrayMem(n, 2, func(i int) int32 { return int32(i * 3) })
	p, err := SumArrayReg(n)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cpu, err := MeasureProgram(p, mem, BigCPUModel(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	var want int32
	for i := 0; i < n; i++ {
		want += int32(i * 3)
	}
	if cpu.Mem[n] != want {
		t.Errorf("sum = %d, want %d", cpu.Mem[n], want)
	}
}

func TestRegisterBeatsMemoryAccumulator(t *testing.T) {
	const n = 40
	mem := arrayMem(n, 2, func(i int) int32 { return int32(i) })
	model := BigCPUModel()
	pReg, err := SumArrayReg(n)
	if err != nil {
		t.Fatal(err)
	}
	pMem, err := SumArrayMem(n)
	if err != nil {
		t.Fatal(err)
	}
	stR, eR, cpuR, err := MeasureProgram(pReg, mem, model, 100000)
	if err != nil {
		t.Fatal(err)
	}
	stM, eM, cpuM, err := MeasureProgram(pMem, mem, model, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if cpuR.Mem[n] != cpuM.Mem[n] {
		t.Fatal("the two variants disagree on the sum")
	}
	if eM.Total() <= eR.Total() {
		t.Errorf("memory accumulator energy %v should exceed register %v", eM.Total(), eR.Total())
	}
	if stM.Cycles <= stR.Cycles {
		t.Errorf("memory accumulator should be slower (%d vs %d cycles)", stM.Cycles, stR.Cycles)
	}
	// Survey: faster code is lower-energy code — verified jointly above.
}

func TestUnrollingSavesTimeAndEnergy(t *testing.T) {
	const n = 48
	mem := arrayMem(n, 2, func(i int) int32 { return int32(2 * i) })
	model := BigCPUModel()
	pPlain, err := SumArrayReg(n)
	if err != nil {
		t.Fatal(err)
	}
	pUnroll, err := SumArrayUnrolled(n)
	if err != nil {
		t.Fatal(err)
	}
	stP, eP, cpuP, err := MeasureProgram(pPlain, mem, model, 100000)
	if err != nil {
		t.Fatal(err)
	}
	stU, eU, cpuU, err := MeasureProgram(pUnroll, mem, model, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if cpuP.Mem[n] != cpuU.Mem[n] {
		t.Fatal("unrolled sum differs")
	}
	if stU.Cycles >= stP.Cycles || eU.Total() >= eP.Total() {
		t.Errorf("unrolled: %d cycles %.1f nJ, plain: %d cycles %.1f nJ — unrolled should win both",
			stU.Cycles, eU.Total(), stP.Cycles, eP.Total())
	}
	if _, err := SumArrayUnrolled(5); err == nil {
		t.Error("non-multiple-of-4 should fail")
	}
}

func TestAlgorithmChoice(t *testing.T) {
	const n = 64
	mem := arrayMem(n, 2, func(i int) int32 { return int32(i * 2) })
	key := int32(n * 2 * 3 / 4) // present near 3/4 of the array
	model := BigCPUModel()
	lin, err := LinearSearch(n, key)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := BinarySearch(n, key)
	if err != nil {
		t.Fatal(err)
	}
	stL, eL, cpuL, err := MeasureProgram(lin, mem, model, 100000)
	if err != nil {
		t.Fatal(err)
	}
	stB, eB, cpuB, err := MeasureProgram(bin, mem, model, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if cpuL.Mem[n] != cpuB.Mem[n] {
		t.Fatalf("search results differ: %d vs %d", cpuL.Mem[n], cpuB.Mem[n])
	}
	if cpuL.Mem[n] < 0 {
		t.Fatal("key should be found")
	}
	if eB.Total() >= eL.Total() || stB.Cycles >= stL.Cycles {
		t.Errorf("binary search (%d cy, %.1f nJ) should beat linear (%d cy, %.1f nJ)",
			stB.Cycles, eB.Total(), stL.Cycles, eL.Total())
	}
	// Absent key.
	miss, err := BinarySearch(n, 9999)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cpuMiss, err := MeasureProgram(miss, mem, model, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if cpuMiss.Mem[n] != -1 {
		t.Errorf("missing key result = %d, want -1", cpuMiss.Mem[n])
	}
}

func TestBinarySearchExhaustive(t *testing.T) {
	const n = 32
	mem := arrayMem(n, 2, func(i int) int32 { return int32(i * 5) })
	for i := 0; i < n; i++ {
		p, err := BinarySearch(n, int32(i*5))
		if err != nil {
			t.Fatal(err)
		}
		_, _, cpu, err := MeasureProgram(p, mem, BigCPUModel(), 100000)
		if err != nil {
			t.Fatal(err)
		}
		if cpu.Mem[n] != int32(i) {
			t.Fatalf("search for %d found index %d, want %d", i*5, cpu.Mem[n], i)
		}
	}
}

func TestColdSchedulingDSPvsCPU(t *testing.T) {
	// Survey §V: instruction order matters on a small DSP but not much on
	// a large CPU.
	block, err := DotProductBlock(4)
	if err != nil {
		t.Fatal(err)
	}
	dsp, cpuM := DSPModel(), BigCPUModel()
	schedDSP, err := ColdSchedule(block, dsp)
	if err != nil {
		t.Fatal(err)
	}
	// Semantics preserved.
	var regs [NumRegs]int32
	r := rand.New(rand.NewSource(3))
	for i := 1; i <= 8; i++ {
		regs[i] = int32(r.Intn(100))
	}
	r1, _, err := RunBlock(block, regs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := RunBlock(schedDSP, regs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r1[14] != r2[14] {
		t.Fatalf("cold scheduling changed the dot product: %d vs %d", r1[14], r2[14])
	}
	// DSP: big relative saving; CPU: small.
	overhead := func(block []Instr, m *PowerModel) float64 { return m.Energy(traceOf(block)).OverheadNJ }
	ovDSPBefore := overhead(block, dsp)
	ovDSPAfter := overhead(schedDSP, dsp)
	if ovDSPAfter >= ovDSPBefore {
		t.Errorf("DSP overhead %v should drop below %v", ovDSPAfter, ovDSPBefore)
	}
	dspSaving := (ovDSPBefore - ovDSPAfter) / dsp.Energy(traceOf(block)).Total()
	schedCPU, err := ColdSchedule(block, cpuM)
	if err != nil {
		t.Fatal(err)
	}
	cpuSaving := (overhead(block, cpuM) - overhead(schedCPU, cpuM)) / cpuM.Energy(traceOf(block)).Total()
	if dspSaving <= cpuSaving {
		t.Errorf("DSP saving %.4f should exceed CPU saving %.4f", dspSaving, cpuSaving)
	}
	if dspSaving < 0.03 {
		t.Errorf("DSP saving %.4f too small to matter", dspSaving)
	}
}

func traceOf(block []Instr) []Opcode {
	out := make([]Opcode, len(block))
	for i, in := range block {
		out[i] = in.Op
	}
	return out
}

func TestColdScheduleRejectsBranches(t *testing.T) {
	if _, err := ColdSchedule([]Instr{{Op: JMP}}, DSPModel()); err == nil {
		t.Error("branches in block should fail")
	}
}

func TestPairMAC(t *testing.T) {
	block, err := DotProductBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	paired := PairMAC(block)
	if len(paired) != len(block)-3 {
		t.Fatalf("pairing should fuse 3 MUL/ADD pairs: %d -> %d instrs", len(block), len(paired))
	}
	macs := 0
	for _, in := range paired {
		if in.Op == MAC {
			macs++
		}
	}
	if macs != 3 {
		t.Errorf("want 3 MACs, got %d", macs)
	}
	// Semantics preserved.
	var regs [NumRegs]int32
	for i := 1; i <= 8; i++ {
		regs[i] = int32(i * 7)
	}
	r1, st1, err := RunBlock(block, regs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r2, st2, err := RunBlock(paired, regs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r1[14] != r2[14] {
		t.Fatalf("pairing changed result: %d vs %d", r1[14], r2[14])
	}
	// Energy drops on the DSP model (fewer instructions and transitions).
	dsp := DSPModel()
	if dsp.Energy(st2.Trace).Total() >= dsp.Energy(st1.Trace).Total() {
		t.Error("MAC pairing should reduce DSP energy")
	}
}

func TestPairMACKeepsLiveTemp(t *testing.T) {
	// The temp register is read later: pairing must not fire.
	block := []Instr{
		{Op: MUL, Rd: 15, Rs: 1, Rt: 2},
		{Op: ADD, Rd: 14, Rs: 14, Rt: 15},
		{Op: ADD, Rd: 13, Rs: 15, Rt: 14}, // reads r15
	}
	paired := PairMAC(block)
	if len(paired) != 3 {
		t.Error("pairing must not fuse when the temp is live")
	}
}

func TestInstructionSelection(t *testing.T) {
	// Strength reduction [45]: r2 = 9*r1 by shift+add vs multiplier, same
	// result, less energy on both models (multiplier is multi-cycle and
	// power-hungry).
	var regs [NumRegs]int32
	regs[1] = 13
	shift := []Instr{{Op: SHL, Rd: 2, Rs: 1, Imm: 3}, {Op: ADD, Rd: 2, Rs: 2, Rt: 1}}
	mul := []Instr{{Op: LI, Rd: 3, Imm: 9}, {Op: MUL, Rd: 2, Rs: 1, Rt: 3}}
	rs, stS, err := RunBlock(shift, regs, 1)
	if err != nil {
		t.Fatal(err)
	}
	rm, stM, err := RunBlock(mul, regs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs[2] != 13*9 || rm[2] != 13*9 {
		t.Fatalf("results %d / %d, want %d", rs[2], rm[2], 13*9)
	}
	for _, m := range []*PowerModel{BigCPUModel(), DSPModel()} {
		if m.Energy(stS.Trace).Total() >= m.Energy(stM.Trace).Total() {
			t.Errorf("%s: shift/add should be cheaper than multiply", m.Name)
		}
	}
}

func TestCPUFaults(t *testing.T) {
	cpu := NewCPU(4)
	if _, err := cpu.Run(Program{{Op: LW, Rd: 1, Rs: 0, Imm: 99}}, 10); err == nil {
		t.Error("out-of-range load should fail")
	}
	cpu = NewCPU(4)
	if _, err := cpu.Run(Program{{Op: SW, Rs: 0, Rt: 1, Imm: -1}}, 10); err == nil {
		t.Error("negative store should fail")
	}
	cpu = NewCPU(4)
	if _, err := cpu.Run(Program{{Op: JMP, Target: 99}}, 10); err == nil {
		t.Error("jump out of program should fail")
	}
	cpu = NewCPU(4)
	if _, err := cpu.Run(Program{{Op: NOP}, {Op: JMP, Target: 0}}, 10); err == nil {
		t.Error("infinite loop should exhaust budget")
	}
	cpu = NewCPU(4)
	if _, err := cpu.Run(Program{{Op: ADD, Rd: 99}}, 10); err == nil {
		t.Error("bad register should fail")
	}
}

func TestEnergyBreakdownAndPower(t *testing.T) {
	m := BigCPUModel()
	e := m.Energy([]Opcode{ADD, MUL, LW})
	if e.BaseNJ <= 0 || e.OverheadNJ <= 0 || e.MemoryNJ <= 0 {
		t.Errorf("breakdown has zero components: %+v", e)
	}
	if e.Cycles != 1+4+2 {
		t.Errorf("cycles = %d, want 7", e.Cycles)
	}
	if e.AveragePowerW(100) <= 0 {
		t.Error("average power should be positive")
	}
	if (EnergyBreakdown{}).AveragePowerW(100) != 0 {
		t.Error("empty breakdown power should be 0")
	}
}

func TestOpcodeAndClassStrings(t *testing.T) {
	for o := NOP; o < numOpcodes; o++ {
		if o.String() == "" {
			t.Errorf("opcode %d has no name", int(o))
		}
	}
	for c := Class(0); c < numClasses; c++ {
		if c.String() == "" {
			t.Errorf("class %d has no name", int(c))
		}
	}
	if (Instr{Op: ADD, Rd: 1, Rs: 2, Rt: 3}).String() != "add r1, r2, r3" {
		t.Error("instr formatting wrong")
	}
}

func TestDotProductBlockValidation(t *testing.T) {
	if _, err := DotProductBlock(0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := DotProductBlock(5); err == nil {
		t.Error("k=5 should fail")
	}
}
