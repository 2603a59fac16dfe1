package behav

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// Module is one implementation choice for an operation type, in the
// power/delay library sense of Goodby et al. [17].
type Module struct {
	Name string
	Kind OpKind
	// Delay in nanoseconds at the reference voltage.
	Delay float64
	// Energy per operation in pJ at the reference voltage (the switched
	// capacitance times Vref²).
	Energy float64
	// Area in equivalent gates.
	Area float64
}

// ModuleLibrary holds the available modules per kind.
type ModuleLibrary struct {
	Modules []Module
	// Vref and Vt parameterize the delay/voltage model.
	Vref, Vt float64
}

// DefaultModules returns a 1995-flavour library: fast/large and slow/small
// variants of adders and multipliers.
func DefaultModules() *ModuleLibrary {
	return &ModuleLibrary{
		Vref: 5.0, Vt: 0.8,
		Modules: []Module{
			{Name: "add_cla", Kind: OpAdd, Delay: 20, Energy: 6, Area: 120},
			{Name: "add_ripple", Kind: OpAdd, Delay: 45, Energy: 3.5, Area: 60},
			{Name: "sub_cla", Kind: OpSub, Delay: 22, Energy: 6.5, Area: 130},
			{Name: "sub_ripple", Kind: OpSub, Delay: 48, Energy: 4, Area: 65},
			{Name: "mul_array", Kind: OpMul, Delay: 60, Energy: 40, Area: 900},
			{Name: "mul_serial", Kind: OpMul, Delay: 140, Energy: 24, Area: 350},
		},
	}
}

// Options lists the modules implementing a kind.
func (l *ModuleLibrary) Options(k OpKind) []Module {
	var out []Module
	for _, m := range l.Modules {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

// ScaleVoltage returns the delay multiplier and energy multiplier of
// running at voltage v instead of Vref, under the standard alpha-power
// model delay ∝ V/(V−Vt)² and energy ∝ V².
func (l *ModuleLibrary) ScaleVoltage(v float64) (delayMul, energyMul float64, err error) {
	if v <= l.Vt {
		return 0, 0, fmt.Errorf("behav: voltage %.2f at or below threshold %.2f", v, l.Vt)
	}
	dRef := l.Vref / ((l.Vref - l.Vt) * (l.Vref - l.Vt))
	dV := v / ((v - l.Vt) * (v - l.Vt))
	return dV / dRef, (v * v) / (l.Vref * l.Vref), nil
}

// VoltageForSlack finds the lowest voltage (>= Vt+0.05) at which delay
// inflates by at most `slack` (>= 1), by bisection.
func (l *ModuleLibrary) VoltageForSlack(slack float64) (float64, error) {
	if slack < 1 {
		return 0, fmt.Errorf("behav: slack %v < 1", slack)
	}
	lo, hi := l.Vt+0.05, l.Vref
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		dm, _, err := l.ScaleVoltage(mid)
		if err != nil {
			lo = mid
			continue
		}
		if dm <= slack {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// SelectModules picks one module per arithmetic op so that the schedule's
// critical path (sum of module delays along the longest dependence chain)
// meets targetDelay while minimizing total energy per iteration: ops with
// timing slack get the slow low-energy module ([17]).
func SelectModules(d *DFG, lib *ModuleLibrary, targetDelay float64) (map[int]Module, float64, error) {
	choice := make(map[int]Module)
	// Start with the fastest option everywhere.
	for _, op := range d.Ops {
		if !op.Kind.IsArith() {
			continue
		}
		opts := lib.Options(op.Kind)
		if len(opts) == 0 {
			return nil, 0, fmt.Errorf("behav: no module for %s", op.Kind)
		}
		best := opts[0]
		for _, m := range opts[1:] {
			if m.Delay < best.Delay {
				best = m
			}
		}
		choice[op.ID] = best
	}
	if fastest := criticalDelay(d, choice); fastest > targetDelay {
		return nil, 0, fmt.Errorf("behav: target delay %.1f infeasible (fastest %.1f)", targetDelay, fastest)
	}
	// Greedy: repeatedly take the downgrade with the best energy saving
	// that keeps the deadline.
	for {
		type cand struct {
			id   int
			m    Module
			save float64
		}
		var best *cand
		for _, op := range d.Ops {
			if !op.Kind.IsArith() {
				continue
			}
			cur := choice[op.ID]
			for _, m := range lib.Options(op.Kind) {
				if m.Energy >= cur.Energy || m.Name == cur.Name {
					continue
				}
				old := choice[op.ID]
				choice[op.ID] = m
				ok := criticalDelay(d, choice) <= targetDelay
				choice[op.ID] = old
				if !ok {
					continue
				}
				save := cur.Energy - m.Energy
				if best == nil || save > best.save {
					best = &cand{id: op.ID, m: m, save: save}
				}
			}
		}
		if best == nil {
			break
		}
		choice[best.id] = best.m
	}
	total := 0.0
	for _, m := range choice {
		total += m.Energy
	}
	return choice, total, nil
}

// criticalDelay is the longest dependence chain of d under the chosen
// modules: the sum of module delays along it.
func criticalDelay(d *DFG, choice map[int]Module) float64 {
	longest := make([]float64, len(d.Ops))
	worst := 0.0
	for _, op := range d.Ops {
		v := 0.0
		for _, a := range op.Args {
			v = max(v, longest[a])
		}
		if m, ok := choice[op.ID]; ok {
			v += m.Delay
		}
		longest[op.ID] = v
		worst = max(worst, v)
	}
	return worst
}

// Binding maps each arithmetic op to a functional-unit instance.
type Binding struct {
	// Unit[opID] = instance index within its kind.
	Unit map[int]int
	// NumUnits per kind.
	NumUnits map[OpKind]int
}

// BindGreedyCorrelation binds scheduled ops to the minimum number of units
// per kind, choosing among compatible units the one whose previous
// operands are most correlated with the op's operands — minimizing the
// Hamming switching on the unit's input buses ([33],[34]). Operand streams
// are sampled by evaluating the DFG on the provided input traces.
func BindGreedyCorrelation(d *DFG, s *Schedule, traces []map[string]int, correlationAware bool) (*Binding, error) {
	samples, err := d.sample(traces)
	if err != nil {
		return nil, err
	}

	b := &Binding{Unit: make(map[int]int), NumUnits: make(map[OpKind]int)}
	// Determine the number of units per kind: max concurrency per step.
	perStep := make(map[[2]int]int)
	for _, op := range d.Ops {
		if op.Kind.IsArith() {
			key := [2]int{s.Step[op.ID], int(op.Kind)}
			perStep[key]++
		}
	}
	for key, n := range perStep {
		k := OpKind(key[1])
		if n > b.NumUnits[k] {
			b.NumUnits[k] = n
		}
	}
	// Bind step by step. lastOp[kind][unit] = previous op on that unit.
	lastOp := make(map[OpKind][]int)
	for k, n := range b.NumUnits {
		lastOp[k] = make([]int, n)
		for i := range lastOp[k] {
			lastOp[k][i] = -1
		}
	}
	maxStep := 0
	for _, op := range d.Ops {
		if op.Kind.IsArith() && s.Step[op.ID] > maxStep {
			maxStep = s.Step[op.ID]
		}
	}
	for step := 0; step <= maxStep; step++ {
		var ops []*Op
		for _, op := range d.Ops {
			if op.Kind.IsArith() && s.Step[op.ID] == step {
				ops = append(ops, op)
			}
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
		usedThisStep := make(map[OpKind]map[int]bool)
		for _, op := range ops {
			k := op.Kind
			if usedThisStep[k] == nil {
				usedThisStep[k] = make(map[int]bool)
			}
			bestUnit, bestCost := -1, math.Inf(1)
			for u := 0; u < b.NumUnits[k]; u++ {
				if usedThisStep[k][u] {
					continue
				}
				cost := 0.0
				if correlationAware {
					prev := lastOp[k][u]
					if prev >= 0 {
						cost = operandHamming(d, samples, prev, op.ID)
					}
				} else {
					cost = float64(u) // first-fit: deterministic arbitrary
				}
				if cost < bestCost {
					bestCost, bestUnit = cost, u
				}
			}
			if bestUnit < 0 {
				return nil, fmt.Errorf("behav: no free %s unit at step %d", k, step)
			}
			b.Unit[op.ID] = bestUnit
			usedThisStep[k][bestUnit] = true
			lastOp[k][bestUnit] = op.ID
		}
	}
	return b, nil
}

// operandHamming estimates the average input-bus toggles when op b follows
// op a on the same unit, from the sampled operand values.
func operandHamming(d *DFG, samples [][]int, a, b int) float64 {
	opA, opB := d.Ops[a], d.Ops[b]
	if len(opA.Args) != 2 || len(opB.Args) != 2 {
		return 0
	}
	total := 0
	n := len(samples[opA.Args[0]])
	if n == 0 {
		return 0
	}
	for t := 0; t < n; t++ {
		for i := 0; i < 2; i++ {
			va := samples[opA.Args[i]][t]
			vb := samples[opB.Args[i]][t]
			total += bits.OnesCount32(uint32(va) ^ uint32(vb))
		}
	}
	return float64(total) / float64(n)
}

// SwitchedCapacitance evaluates a binding: total expected input-bus
// toggles per iteration, summing over each unit the Hamming distances
// between consecutive operations bound to it.
func SwitchedCapacitance(d *DFG, s *Schedule, b *Binding, traces []map[string]int) (float64, error) {
	samples, err := d.sample(traces)
	if err != nil {
		return 0, err
	}
	// Sequence of ops per (kind, unit) in step order.
	type unitKey struct {
		k OpKind
		u int
	}
	seq := make(map[unitKey][]*Op)
	var arith []*Op
	for _, op := range d.Ops {
		if op.Kind.IsArith() {
			arith = append(arith, op)
		}
	}
	sort.Slice(arith, func(i, j int) bool {
		si, sj := s.Step[arith[i].ID], s.Step[arith[j].ID]
		if si != sj {
			return si < sj
		}
		return arith[i].ID < arith[j].ID
	})
	for _, op := range arith {
		u, ok := b.Unit[op.ID]
		if !ok {
			return 0, fmt.Errorf("behav: op %q unbound", op.Name)
		}
		key := unitKey{op.Kind, u}
		seq[key] = append(seq[key], op)
	}
	total := 0.0
	for _, ops := range seq {
		for i := 1; i < len(ops); i++ {
			total += operandHamming(d, samples, ops[i-1].ID, ops[i].ID)
		}
	}
	return total, nil
}

// RandomTraces generates n input traces with the given bit-width for every
// input of the graph; base and step parameters produce correlated streams
// (slowly varying samples) when walk is true.
func RandomTraces(d *DFG, r *rand.Rand, n, widthBits int, walk bool) []map[string]int {
	var names []string
	for _, op := range d.Ops {
		if op.Kind == OpInput {
			names = append(names, op.Name)
		}
	}
	limit := 1 << uint(widthBits)
	state := make(map[string]int)
	for _, nm := range names {
		state[nm] = r.Intn(limit)
	}
	out := make([]map[string]int, n)
	for i := range out {
		tr := make(map[string]int, len(names))
		for _, nm := range names {
			if walk {
				state[nm] += r.Intn(7) - 3
				if state[nm] < 0 {
					state[nm] = 0
				}
				if state[nm] >= limit {
					state[nm] = limit - 1
				}
				tr[nm] = state[nm]
			} else {
				tr[nm] = r.Intn(limit)
			}
		}
		out[i] = tr
	}
	return out
}

// Parallelize returns a graph processing `factor` independent samples per
// iteration (loop unrolling across samples): inputs and outputs are
// replicated with _pN suffixes. At fixed throughput the clock can then run
// `factor` times slower, enabling voltage scaling — transformation [7].
func Parallelize(d *DFG, factor int) (*DFG, error) {
	if factor < 1 {
		return nil, fmt.Errorf("behav: parallelize factor %d", factor)
	}
	out := NewDFG(fmt.Sprintf("%s_x%d", d.Name, factor))
	for p := 0; p < factor; p++ {
		idMap := make(map[int]int)
		for _, op := range d.Ops {
			args := make([]int, len(op.Args))
			for i, a := range op.Args {
				args[i] = idMap[a]
			}
			name := op.Name
			if op.Kind == OpInput || op.Kind == OpOutput {
				name = fmt.Sprintf("%s_p%d", op.Name, p)
			} else {
				name = fmt.Sprintf("%s_p%d", op.Name, p)
			}
			nop, err := out.add(op.Kind, name, args...)
			if err != nil {
				return nil, err
			}
			nop.Value = op.Value
			idMap[op.ID] = nop.ID
		}
	}
	return out, nil
}

// PowerAtThroughput computes the power of executing the graph at a given
// sample throughput (samples per microsecond): it selects modules for the
// achievable step time, finds the minimum voltage meeting timing, and
// returns power = energy-per-sample × throughput × energyMul(V).
// parallel is the number of samples processed per graph iteration.
type PowerAtThroughputResult struct {
	Voltage   float64
	EnergyPJ  float64 // per iteration at Vref
	PowerUW   float64 // at the scaled voltage and required rate
	DelayNS   float64 // critical path at Vref
	Slack     float64
	Parallel  int
	DelayMul  float64
	EnergyMul float64
}

// PowerAtThroughput evaluates graph g processing `parallel` samples per
// iteration at `throughput` samples/µs with period budget 1000/throughput
// × parallel ns per iteration.
func PowerAtThroughput(d *DFG, lib *ModuleLibrary, throughput float64, parallel int) (PowerAtThroughputResult, error) {
	res := PowerAtThroughputResult{Parallel: parallel}
	budget := 1000.0 / throughput * float64(parallel) // ns per iteration
	// Critical path with fastest modules.
	choice, energy, err := SelectModules(d, lib, budget)
	if err != nil {
		return res, err
	}
	res.EnergyPJ = energy
	res.DelayNS = criticalDelay(d, choice)
	res.Slack = budget / res.DelayNS
	v, err := lib.VoltageForSlack(res.Slack)
	if err != nil {
		return res, err
	}
	res.Voltage = v
	dm, em, err := lib.ScaleVoltage(v)
	if err != nil {
		return res, err
	}
	res.DelayMul, res.EnergyMul = dm, em
	// Power: energy per iteration × iterations per second, scaled by V².
	itersPerUS := throughput / float64(parallel)
	res.PowerUW = energy * em * itersPerUS // pJ × iter/µs = µW
	return res, nil
}
