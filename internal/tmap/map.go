package tmap

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/power"
)

// Objective selects the covering cost function.
type Objective int

// Objectives.
const (
	MinArea Objective = iota
	MinDelay
	MinPower
)

func (o Objective) String() string {
	switch o {
	case MinArea:
		return "area"
	case MinDelay:
		return "delay"
	case MinPower:
		return "power"
	}
	return fmt.Sprintf("objective(%d)", int(o))
}

// Options configures mapping.
type Options struct {
	Objective Objective
	// Decompose controls the subject-graph decomposition shape (the [48]
	// lever).
	Decompose DecomposeOptions
}

// Match is one chosen cell instance.
type Match struct {
	Cell *Cell
	Root logic.NodeID // subject node whose function the instance computes
	// PinLeaves[i] is the subject node feeding pin i.
	PinLeaves []logic.NodeID
}

// Mapping is the result of technology mapping.
type Mapping struct {
	Subject  *Subject
	Matches  []Match // in subject topological order
	Area     float64
	Delay    float64
	Power    float64 // Σ activity·pin-capacitance over visible nets
	Activity map[logic.NodeID]float64
}

// extLoad is the capacitance charged to nets driving primary outputs.
const extLoad = 1.0

// Map performs tree-covering technology mapping of the network onto
// DefaultLibrary, with exact zero-delay activities under uniform inputs.
func Map(nw *logic.Network, opts Options) (*Mapping, error) {
	lib := DefaultLibrary()
	subj, err := DecomposeWith(nw, opts.Decompose)
	if err != nil {
		return nil, err
	}
	sn := subj.Net

	// Exact zero-delay switching activity of every subject net, under
	// uniform 0.5 sources.
	probs, err := power.ExactProbabilities(context.TODO(), sn, nil, bdd.Budget{})
	if err != nil {
		return nil, err
	}
	act := make(map[logic.NodeID]float64, len(probs))
	for id, p := range probs {
		act[id] = 2 * p * (1 - p)
	}

	// Tree roots: multi-fanout nodes, PO drivers, DFF D-drivers.
	isRoot := make(map[logic.NodeID]bool)
	for _, po := range sn.POs() {
		isRoot[po] = true
	}
	for _, ff := range sn.FFs() {
		isRoot[sn.Node(ff).Fanin[0]] = true
	}
	for _, id := range sn.Gates() {
		if len(sn.Node(id).Fanout()) > 1 {
			isRoot[id] = true
		}
	}

	isSource := func(id logic.NodeID) bool {
		n := sn.Node(id)
		return n == nil || !n.Type.IsGate()
	}

	// DP over subject gates in topological order.
	type best struct {
		cost  float64
		match Match
		ok    bool
	}
	bests := make(map[logic.NodeID]*best)
	leafCost := func(id logic.NodeID) (float64, error) {
		if isSource(id) {
			return 0, nil
		}
		b := bests[id]
		if b == nil || !b.ok {
			return 0, fmt.Errorf("tmap: no match covers subject node %d", id)
		}
		return b.cost, nil
	}

	order, err := sn.TopoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		n := sn.Node(id)
		if !n.Type.IsGate() {
			continue
		}
		b := &best{cost: math.Inf(1)}
		for ci := range lib.Cells {
			cell := &lib.Cells[ci]
			binding := make(map[int]logic.NodeID)
			if !matchPattern(sn, cell.pat, id, true, isRoot, binding) {
				continue
			}
			pins := make([]logic.NodeID, cell.Inputs)
			okPins := true
			for p := 0; p < cell.Inputs; p++ {
				leaf, ok := binding[p]
				if !ok {
					okPins = false
					break
				}
				pins[p] = leaf
			}
			if !okPins {
				continue
			}
			// Distinct leaves for recursive cost.
			distinct := distinctIDs(pins)
			var cost float64
			switch opts.Objective {
			case MinArea:
				cost = cell.Area
				for _, l := range distinct {
					lc, err := leafCost(l)
					if err != nil {
						return nil, err
					}
					cost += lc
				}
			case MinDelay:
				cost = cell.Delay
				worst := 0.0
				for _, l := range distinct {
					lc, err := leafCost(l)
					if err != nil {
						return nil, err
					}
					if lc > worst {
						worst = lc
					}
				}
				cost += worst
			case MinPower:
				cost = 0.01 * cell.Area // small tie-break toward small cells
				for _, l := range pins {
					cost += act[l] * cell.CapPerPin
				}
				for _, l := range distinct {
					lc, err := leafCost(l)
					if err != nil {
						return nil, err
					}
					cost += lc
				}
			}
			if cost < b.cost {
				b.cost = cost
				b.match = Match{Cell: cell, Root: id, PinLeaves: pins}
				b.ok = true
			}
		}
		bests[id] = b
	}

	// Select needed instances starting from roots that matter.
	need := map[logic.NodeID]bool{}
	var stack []logic.NodeID
	for _, po := range sn.POs() {
		if !isSource(po) {
			stack = append(stack, po)
		}
	}
	for _, ff := range sn.FFs() {
		d := sn.Node(ff).Fanin[0]
		if !isSource(d) {
			stack = append(stack, d)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if need[id] {
			continue
		}
		b := bests[id]
		if b == nil || !b.ok {
			return nil, fmt.Errorf("tmap: no match covers needed subject node %d", id)
		}
		need[id] = true
		for _, l := range distinctIDs(b.match.PinLeaves) {
			if !isSource(l) {
				stack = append(stack, l)
			}
		}
	}

	m := &Mapping{Subject: subj, Activity: act}
	var roots []logic.NodeID
	for id := range need {
		roots = append(roots, id)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	// Order matches topologically (by subject topo position).
	pos := make(map[logic.NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	sort.Slice(roots, func(i, j int) bool { return pos[roots[i]] < pos[roots[j]] })
	arrival := make(map[logic.NodeID]float64)
	for _, id := range roots {
		mt := bests[id].match
		m.Matches = append(m.Matches, mt)
		m.Area += mt.Cell.Area
		worst := 0.0
		for _, l := range distinctIDs(mt.PinLeaves) {
			if arrival[l] > worst {
				worst = arrival[l]
			}
		}
		arrival[id] = worst + mt.Cell.Delay
		if arrival[id] > m.Delay {
			m.Delay = arrival[id]
		}
		for _, l := range mt.PinLeaves {
			m.Power += act[l] * mt.Cell.CapPerPin
		}
	}
	for _, po := range sn.POs() {
		m.Power += act[po] * extLoad
	}
	return m, nil
}

// matchPattern tries to unify a cell pattern with the subject subtree at
// node. top marks the pattern root (which may sit on a tree boundary);
// internal pattern nodes must be single-fanout non-root gates. binding
// accumulates pin → subject-node assignments and must stay consistent.
func matchPattern(sn *logic.Network, p *pattern, node logic.NodeID, top bool, isRoot map[logic.NodeID]bool, binding map[int]logic.NodeID) bool {
	if p.kind == leafPat {
		if prev, ok := binding[p.pin]; ok {
			return prev == node
		}
		binding[p.pin] = node
		return true
	}
	n := sn.Node(node)
	if n == nil || !n.Type.IsGate() {
		return false
	}
	if !top && isRoot[node] {
		return false // cannot cover across a tree boundary
	}
	switch p.kind {
	case invPat:
		if n.Type != logic.Not {
			return false
		}
		return matchPattern(sn, p.children[0], n.Fanin[0], false, isRoot, binding)
	case nandPat:
		if n.Type != logic.Nand || len(n.Fanin) != 2 {
			return false
		}
		// Try both input orders, backtracking the binding.
		save := snapshot(binding)
		if matchPattern(sn, p.children[0], n.Fanin[0], false, isRoot, binding) &&
			matchPattern(sn, p.children[1], n.Fanin[1], false, isRoot, binding) {
			return true
		}
		restore(binding, save)
		if matchPattern(sn, p.children[0], n.Fanin[1], false, isRoot, binding) &&
			matchPattern(sn, p.children[1], n.Fanin[0], false, isRoot, binding) {
			return true
		}
		restore(binding, save)
		return false
	}
	return false
}

func snapshot(b map[int]logic.NodeID) map[int]logic.NodeID {
	s := make(map[int]logic.NodeID, len(b))
	for k, v := range b {
		s[k] = v
	}
	return s
}

func restore(b map[int]logic.NodeID, s map[int]logic.NodeID) {
	for k := range b {
		delete(b, k)
	}
	for k, v := range s {
		b[k] = v
	}
}

func distinctIDs(ids []logic.NodeID) []logic.NodeID {
	seen := make(map[logic.NodeID]bool, len(ids))
	var out []logic.NodeID
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// ToNetwork expands the mapping back into a primitive-gate network (each
// cell becomes its logic template) for equivalence checking and
// simulation.
func (m *Mapping) ToNetwork(name string) (*logic.Network, error) {
	sn := m.Subject.Net
	out := logic.New(name)
	val := make(map[logic.NodeID]logic.NodeID) // subject -> out
	for _, pi := range sn.PIs() {
		id, err := out.AddInput(sn.Node(pi).Name)
		if err != nil {
			return nil, err
		}
		val[pi] = id
	}
	type ffFix struct {
		ff logic.NodeID
		d  logic.NodeID // subject D driver
		ph logic.NodeID
	}
	var fixes []ffFix
	for _, ff := range sn.FFs() {
		n := sn.Node(ff)
		ph, err := out.AddConst("__ph_"+n.Name, false)
		if err != nil {
			return nil, err
		}
		q, err := out.AddDFF(n.Name, ph, n.InitVal)
		if err != nil {
			return nil, err
		}
		val[ff] = q
		fixes = append(fixes, ffFix{ff: q, d: n.Fanin[0], ph: ph})
	}
	for _, sid := range sn.Live() {
		n := sn.Node(sid)
		if n.Type == logic.Const0 || n.Type == logic.Const1 {
			id, err := out.AddConst(fmt.Sprintf("k%d", sid), n.Type == logic.Const1)
			if err != nil {
				return nil, err
			}
			val[sid] = id
		}
	}
	seq := 0
	for _, mt := range m.Matches {
		ins := make([]logic.NodeID, len(mt.PinLeaves))
		for i, l := range mt.PinLeaves {
			v, ok := val[l]
			if !ok {
				return nil, fmt.Errorf("tmap: match at %d uses unmapped leaf %d", mt.Root, l)
			}
			ins[i] = v
		}
		seq++
		id, err := buildCellLogic(out, fmt.Sprintf("u%d_%s", seq, mt.Cell.Name), mt.Cell.Name, ins)
		if err != nil {
			return nil, err
		}
		val[mt.Root] = id
	}
	for _, fix := range fixes {
		d, ok := val[fix.d]
		if !ok {
			return nil, fmt.Errorf("tmap: DFF D driver %d unmapped", fix.d)
		}
		if err := out.ReplaceFanin(fix.ff, fix.ph, d); err != nil {
			return nil, err
		}
		if err := out.DeleteNode(fix.ph); err != nil {
			return nil, err
		}
	}
	for _, po := range sn.POs() {
		v, ok := val[po]
		if !ok {
			return nil, fmt.Errorf("tmap: PO subject node %d unmapped", po)
		}
		if err := out.MarkOutput(v); err != nil {
			return nil, err
		}
	}
	out.SweepDead()
	return out, nil
}

// buildCellLogic instantiates the primitive-gate template of a named cell.
func buildCellLogic(nw *logic.Network, name, cell string, in []logic.NodeID) (logic.NodeID, error) {
	g := func(t logic.GateType, fanin ...logic.NodeID) (logic.NodeID, error) {
		return nw.AddGate(name+"_"+fmt.Sprint(len(fanin))+t.String(), t, fanin...)
	}
	switch cell {
	case "INV":
		return nw.AddGate(name, logic.Not, in[0])
	case "BUF":
		return nw.AddGate(name, logic.Buf, in[0])
	case "NAND2":
		return nw.AddGate(name, logic.Nand, in[0], in[1])
	case "AND2":
		return nw.AddGate(name, logic.And, in[0], in[1])
	case "NOR2":
		return nw.AddGate(name, logic.Nor, in[0], in[1])
	case "OR2":
		return nw.AddGate(name, logic.Or, in[0], in[1])
	case "NAND3":
		return nw.AddGate(name, logic.Nand, in[0], in[1], in[2])
	case "NAND4":
		return nw.AddGate(name, logic.Nand, in[0], in[1], in[2], in[3])
	case "AOI21":
		a, err := g(logic.And, in[0], in[1])
		if err != nil {
			return logic.InvalidNode, err
		}
		return nw.AddGate(name, logic.Nor, a, in[2])
	case "OAI21":
		o, err := g(logic.Or, in[0], in[1])
		if err != nil {
			return logic.InvalidNode, err
		}
		return nw.AddGate(name, logic.Nand, o, in[2])
	case "AOI22":
		a1, err := g(logic.And, in[0], in[1])
		if err != nil {
			return logic.InvalidNode, err
		}
		a2, err := nw.AddGate(name+"_and2b", logic.And, in[2], in[3])
		if err != nil {
			return logic.InvalidNode, err
		}
		return nw.AddGate(name, logic.Nor, a1, a2)
	case "XOR2":
		return nw.AddGate(name, logic.Xor, in[0], in[1])
	case "XNOR2":
		return nw.AddGate(name, logic.Xnor, in[0], in[1])
	}
	return logic.InvalidNode, fmt.Errorf("tmap: no logic template for cell %q", cell)
}
