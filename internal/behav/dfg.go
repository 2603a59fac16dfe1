// Package behav implements the behavioral-synthesis optimizations of
// survey §IV.B: data-flow-graph scheduling (ASAP/ALAP/resource-constrained
// list scheduling), module selection over a power/delay library [17],
// register/functional-unit binding that minimizes switched capacitance by
// exploiting signal correlation [33,34], concurrency transformations
// followed by supply-voltage scaling [7] (the quadratic lever), and the
// loop/memory traffic model of [14].
package behav

import (
	"fmt"
	"sort"
)

// OpKind classifies data-flow operations.
type OpKind int

// Operation kinds.
const (
	OpInput OpKind = iota
	OpConst
	OpAdd
	OpSub
	OpMul
	OpOutput
)

var opNames = map[OpKind]string{
	OpInput: "input", OpConst: "const", OpAdd: "add",
	OpSub: "sub", OpMul: "mul", OpOutput: "output",
}

// String returns the mnemonic.
func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// IsArith reports whether the kind occupies a functional unit.
func (k OpKind) IsArith() bool { return k == OpAdd || k == OpSub || k == OpMul }

// Op is one node of a data-flow graph.
type Op struct {
	ID   int
	Kind OpKind
	Name string
	// Args are producer op IDs (two for arithmetic, one for output).
	Args []int
	// Value is the constant for OpConst.
	Value int
}

// DFG is a data-flow graph (single basic block, as in the DSP kernels the
// survey's behavioral papers target).
type DFG struct {
	Name string
	Ops  []*Op
}

// NewDFG returns an empty graph.
func NewDFG(name string) *DFG { return &DFG{Name: name} }

func (d *DFG) add(kind OpKind, name string, args ...int) (*Op, error) {
	for _, a := range args {
		if a < 0 || a >= len(d.Ops) {
			return nil, fmt.Errorf("behav: op %q references missing arg %d", name, a)
		}
	}
	op := &Op{ID: len(d.Ops), Kind: kind, Name: name, Args: args}
	d.Ops = append(d.Ops, op)
	return op, nil
}

// Input declares an input stream.
func (d *DFG) Input(name string) (*Op, error) { return d.add(OpInput, name) }

// Const declares a constant (e.g. a filter coefficient).
func (d *DFG) Const(name string, val int) (*Op, error) {
	op, err := d.add(OpConst, name)
	if err != nil {
		return nil, err
	}
	op.Value = val
	return op, nil
}

// Add declares a two-operand addition.
func (d *DFG) Add(name string, a, b *Op) (*Op, error) { return d.add(OpAdd, name, a.ID, b.ID) }

// Mul declares a multiplication.
func (d *DFG) Mul(name string, a, b *Op) (*Op, error) { return d.add(OpMul, name, a.ID, b.ID) }

// Output marks a value as a graph output.
func (d *DFG) Output(name string, a *Op) (*Op, error) { return d.add(OpOutput, name, a.ID) }

// Check validates that the graph is acyclic by construction (args always
// reference earlier ops) and well-formed.
func (d *DFG) Check() error {
	for _, op := range d.Ops {
		switch op.Kind {
		case OpAdd, OpSub, OpMul:
			if len(op.Args) != 2 {
				return fmt.Errorf("behav: %s %q needs 2 args", op.Kind, op.Name)
			}
		case OpOutput:
			if len(op.Args) != 1 {
				return fmt.Errorf("behav: output %q needs 1 arg", op.Name)
			}
		}
		for _, a := range op.Args {
			if a >= op.ID {
				return fmt.Errorf("behav: op %q references later op %d", op.Name, a)
			}
		}
	}
	return nil
}

// Eval executes the graph on concrete input values (keyed by input name)
// and returns output values keyed by output name. Used to verify that
// transformations preserve behaviour.
func (d *DFG) Eval(inputs map[string]int) (map[string]int, error) {
	vals, err := d.values(inputs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, op := range d.Ops {
		if op.Kind == OpOutput {
			out[op.Name] = vals[op.ID]
		}
	}
	return out, nil
}

// values executes the graph on concrete input values and returns every
// op's value, indexed by op ID.
func (d *DFG) values(inputs map[string]int) ([]int, error) {
	vals := make([]int, len(d.Ops))
	for _, op := range d.Ops {
		switch op.Kind {
		case OpInput:
			v, ok := inputs[op.Name]
			if !ok {
				return nil, fmt.Errorf("behav: missing input %q", op.Name)
			}
			vals[op.ID] = v
		case OpConst:
			vals[op.ID] = op.Value
		case OpAdd:
			vals[op.ID] = vals[op.Args[0]] + vals[op.Args[1]]
		case OpSub:
			vals[op.ID] = vals[op.Args[0]] - vals[op.Args[1]]
		case OpMul:
			vals[op.ID] = vals[op.Args[0]] * vals[op.Args[1]]
		case OpOutput:
			vals[op.ID] = vals[op.Args[0]]
		}
	}
	return vals, nil
}

// sample executes the graph on each input trace and returns every op's
// values across the traces: samples[opID][t] is its value on trace t.
func (d *DFG) sample(traces []map[string]int) ([][]int, error) {
	samples := make([][]int, len(d.Ops))
	for _, tr := range traces {
		vals, err := d.values(tr)
		if err != nil {
			return nil, err
		}
		for id, v := range vals {
			samples[id] = append(samples[id], v)
		}
	}
	return samples, nil
}

// Schedule assigns a control step to every op.
type Schedule struct {
	Step  map[int]int // op ID -> control step (0-based)
	Steps int
}

// ASAP schedules each arithmetic op at the earliest step allowed by its
// dependences; inputs and constants sit at step -1 (available before the
// first step), outputs inherit their producer's step.
func (d *DFG) ASAP() *Schedule {
	s := &Schedule{Step: make(map[int]int)}
	for _, op := range d.Ops {
		switch op.Kind {
		case OpInput, OpConst:
			s.Step[op.ID] = -1
		case OpOutput:
			s.Step[op.ID] = s.Step[op.Args[0]]
		default:
			step := 0
			for _, a := range op.Args {
				if s.Step[a]+1 > step {
					step = s.Step[a] + 1
				}
			}
			s.Step[op.ID] = step
			if step+1 > s.Steps {
				s.Steps = step + 1
			}
		}
	}
	return s
}

// ALAP schedules each op as late as possible within the given latency
// (number of steps); latency < ASAP latency is an error.
func (d *DFG) ALAP(latency int) (*Schedule, error) {
	asap := d.ASAP()
	if latency < asap.Steps {
		return nil, fmt.Errorf("behav: latency %d below ASAP latency %d", latency, asap.Steps)
	}
	s := &Schedule{Step: make(map[int]int), Steps: latency}
	// Latest step per op, computed backwards.
	late := make(map[int]int)
	for i := len(d.Ops) - 1; i >= 0; i-- {
		op := d.Ops[i]
		switch op.Kind {
		case OpOutput:
			late[op.Args[0]] = min(lateOr(late, op.Args[0], latency-1), latency-1)
		case OpAdd, OpSub, OpMul:
			l := lateOr(late, op.ID, latency-1)
			for _, a := range op.Args {
				if d.Ops[a].Kind.IsArith() {
					late[a] = min(lateOr(late, a, latency-1), l-1)
				}
			}
		}
	}
	for _, op := range d.Ops {
		switch op.Kind {
		case OpInput, OpConst:
			s.Step[op.ID] = -1
		case OpOutput:
			s.Step[op.ID] = lateOr(late, op.Args[0], latency-1)
		default:
			s.Step[op.ID] = lateOr(late, op.ID, latency-1)
			if s.Step[op.ID] < 0 {
				return nil, fmt.Errorf("behav: latency %d infeasible", latency)
			}
		}
	}
	return s, nil
}

func lateOr(m map[int]int, id, def int) int {
	if v, ok := m[id]; ok {
		return v
	}
	return def
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ListSchedule performs resource-constrained list scheduling: at most
// limits[kind] operations of each kind per control step (0 or missing
// means unlimited). Priority is the op's ALAP urgency.
func (d *DFG) ListSchedule(limits map[OpKind]int) (*Schedule, error) {
	asap := d.ASAP()
	alap, err := d.ALAP(asap.Steps)
	if err != nil {
		return nil, err
	}
	s := &Schedule{Step: make(map[int]int)}
	for _, op := range d.Ops {
		if op.Kind == OpInput || op.Kind == OpConst {
			s.Step[op.ID] = -1
		}
	}
	scheduled := make(map[int]bool)
	for _, op := range d.Ops {
		if op.Kind == OpInput || op.Kind == OpConst {
			scheduled[op.ID] = true
		}
	}
	pendingArith := 0
	for _, op := range d.Ops {
		if op.Kind.IsArith() {
			pendingArith++
		}
	}
	step := 0
	for pendingArith > 0 {
		// Ready ops: all args scheduled in earlier steps.
		var ready []*Op
		for _, op := range d.Ops {
			if !op.Kind.IsArith() || scheduled[op.ID] {
				continue
			}
			ok := true
			for _, a := range op.Args {
				if !scheduled[a] || s.Step[a] >= step {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, op)
			}
		}
		sort.Slice(ready, func(i, j int) bool {
			ui, uj := alap.Step[ready[i].ID], alap.Step[ready[j].ID]
			if ui != uj {
				return ui < uj // more urgent first
			}
			return ready[i].ID < ready[j].ID
		})
		used := make(map[OpKind]int)
		any := false
		for _, op := range ready {
			lim, has := limits[op.Kind]
			if has && lim > 0 && used[op.Kind] >= lim {
				continue
			}
			s.Step[op.ID] = step
			scheduled[op.ID] = true
			used[op.Kind]++
			pendingArith--
			any = true
		}
		if !any && len(ready) == 0 && pendingArith > 0 {
			// No op ready this step (waiting on deps): advance.
		}
		step++
		if step > 10*len(d.Ops)+10 {
			return nil, fmt.Errorf("behav: list scheduling did not converge")
		}
	}
	s.Steps = step
	for _, op := range d.Ops {
		if op.Kind == OpOutput {
			s.Step[op.ID] = s.Step[op.Args[0]]
		}
	}
	return s, nil
}

// Validate checks schedule consistency: every op after its producers, and
// resource limits respected if given.
func (s *Schedule) Validate(d *DFG, limits map[OpKind]int) error {
	for _, op := range d.Ops {
		if !op.Kind.IsArith() {
			continue
		}
		st, ok := s.Step[op.ID]
		if !ok {
			return fmt.Errorf("behav: op %q unscheduled", op.Name)
		}
		for _, a := range op.Args {
			if s.Step[a] >= st {
				return fmt.Errorf("behav: op %q at step %d not after producer %q at %d",
					op.Name, st, d.Ops[a].Name, s.Step[a])
			}
		}
	}
	if limits != nil {
		perStep := make(map[[2]int]int)
		for _, op := range d.Ops {
			if op.Kind.IsArith() {
				perStep[[2]int{s.Step[op.ID], int(op.Kind)}]++
			}
		}
		for key, n := range perStep {
			kind := OpKind(key[1])
			if lim, ok := limits[kind]; ok && lim > 0 && n > lim {
				return fmt.Errorf("behav: %d %s ops at step %d exceeds limit %d", n, kind, key[0], lim)
			}
		}
	}
	return nil
}
