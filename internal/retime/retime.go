// Package retime implements Leiserson-Saxe retiming [24] on logic
// networks — minimum-period retiming via the FEAS algorithm — plus the
// low-power variant of Monteiro, Devadas and Ghosh [29]: among the
// retimings meeting the period, prefer flip-flop positions that filter
// glitchy nets, exploiting the survey's observation that switching
// activity at flip-flop outputs can be far lower than at their inputs
// (registers pass at most one transition per cycle; combinational nets
// pass every spurious one).
package retime

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sim"
)

// Graph is the retiming view of a network: vertices are combinational
// gates plus a host vertex (index 0) standing for the environment
// (PIs/POs); edge weights count the flip-flops along each connection.
type Graph struct {
	// Verts[i] for i >= 1 is the gate's NodeID; Verts[0] is InvalidNode
	// (host).
	Verts []logic.NodeID
	// Index maps gate NodeID -> vertex index.
	Index map[logic.NodeID]int
	// Edges: from, to vertex indices and FF count.
	Edges []Edge
	// Delay per vertex (host = 0).
	Delay []float64

	nw *logic.Network
}

// Edge is one retiming-graph arc.
type Edge struct {
	From, To int
	Weight   int
	// srcNode is the driving node in the original network (gate, PI or
	// constant) that the connection ultimately comes from.
	srcNode logic.NodeID
}

// Host is the environment vertex index.
const Host = 0

// BuildGraph converts a network to its retiming graph. Each gate is a
// vertex with unit delay; chains of DFFs along connections become edge
// weights; PIs and POs attach to the host vertex.
func BuildGraph(nw *logic.Network) (*Graph, error) {
	g := &Graph{Index: make(map[logic.NodeID]int), nw: nw}
	g.Verts = append(g.Verts, logic.InvalidNode) // host
	g.Delay = append(g.Delay, 0)
	for _, id := range nw.Gates() {
		g.Index[id] = len(g.Verts)
		g.Verts = append(g.Verts, id)
		g.Delay = append(g.Delay, 1)
	}
	// traceSrc follows DFF chains back to a non-DFF driver.
	traceSrc := func(id logic.NodeID) (logic.NodeID, int, error) {
		w := 0
		for {
			n := nw.Node(id)
			if n == nil {
				return logic.InvalidNode, 0, fmt.Errorf("retime: dangling node %d", id)
			}
			if n.Type != logic.DFF {
				return id, w, nil
			}
			w++
			id = n.Fanin[0]
		}
	}
	vertexOf := func(id logic.NodeID) int {
		n := nw.Node(id)
		if n.Type.IsGate() {
			return g.Index[id]
		}
		return Host // PIs and constants belong to the environment
	}
	for _, id := range nw.Gates() {
		to := g.Index[id]
		for _, f := range nw.Node(id).Fanin {
			src, w, err := traceSrc(f)
			if err != nil {
				return nil, err
			}
			g.Edges = append(g.Edges, Edge{From: vertexOf(src), To: to, Weight: w, srcNode: src})
		}
	}
	for _, po := range nw.POs() {
		src, w, err := traceSrc(po)
		if err != nil {
			return nil, err
		}
		g.Edges = append(g.Edges, Edge{From: vertexOf(src), To: Host, Weight: w, srcNode: src})
	}
	// FFs feeding other FFs terminating at POs are covered above; FF
	// chains hanging off gates with no gate consumer appear via POs only.
	return g, nil
}

// Period returns the maximum combinational delay under retiming r (nil
// means the identity retiming): the longest vertex-delay path along
// zero-weight edges.
func (g *Graph) Period(r []int) (float64, error) {
	if r == nil {
		r = make([]int, len(g.Verts))
	}
	arr, err := g.arrivals(r)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, a := range arr {
		worst = max(worst, a)
	}
	return worst, nil
}

// arrivals returns each vertex's arrival time under retiming r: its delay
// plus the longest vertex-delay path into it along zero-weight edges,
// found by relaxation in topological order. The zero-weight edges of a
// well-formed circuit are acyclic; a cycle among them is an error.
func (g *Graph) arrivals(r []int) ([]float64, error) {
	adj := make([][]Edge, len(g.Verts))
	indeg := make([]int, len(g.Verts))
	for _, e := range g.Edges {
		if g.weightR(e, r) == 0 {
			adj[e.From] = append(adj[e.From], e)
			indeg[e.To]++
		}
	}
	arr := append([]float64(nil), g.Delay...)
	var queue []int
	for v := range indeg {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	processed := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		processed++
		for _, e := range adj[v] {
			arr[e.To] = max(arr[e.To], arr[v]+g.Delay[e.To])
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if processed != len(g.Verts) {
		return nil, fmt.Errorf("retime: zero-weight cycle (period undefined)")
	}
	return arr, nil
}

func (g *Graph) weightR(e Edge, r []int) int {
	return e.Weight + r[e.To] - r[e.From]
}

// Legal reports whether the retiming keeps every edge weight non-negative
// and the host fixed.
func (g *Graph) Legal(r []int) bool {
	if r[Host] != 0 {
		return false
	}
	for _, e := range g.Edges {
		if g.weightR(e, r) < 0 {
			return false
		}
	}
	return true
}

// Feasible runs the FEAS algorithm: it returns a legal retiming achieving
// clock period <= c, or nil if none exists.
func (g *Graph) Feasible(c float64) ([]int, error) {
	n := len(g.Verts)
	r := make([]int, n)
	// FEAS increments every violator, the host included — retimings are
	// relative, so r is normalized to r[Host] = 0 afterwards. (Skipping
	// the host breaks legality on zero-weight edges into it.)
	normalize := func(r []int) []int {
		out := make([]int, len(r))
		for i := range r {
			out[i] = r[i] - r[Host]
		}
		return out
	}
	for iter := 0; iter <= n; iter++ {
		viol, err := g.violators(r, c)
		if err != nil {
			return nil, err
		}
		if len(viol) == 0 {
			rn := normalize(r)
			if !g.Legal(rn) {
				return nil, nil
			}
			return rn, nil
		}
		if iter == n {
			break
		}
		for _, v := range viol {
			r[v]++
		}
	}
	return nil, nil
}

// violators returns vertices whose arrival exceeds c under retiming r.
func (g *Graph) violators(r []int, c float64) ([]int, error) {
	arr, err := g.arrivals(r)
	if err != nil {
		return nil, err
	}
	var out []int
	for v := range arr {
		if arr[v] > c+1e-9 {
			out = append(out, v)
		}
	}
	return out, nil
}

// MinPeriod finds the smallest achievable period by binary search over
// integer periods (unit gate delays), returning the period and a retiming
// achieving it.
func (g *Graph) MinPeriod() (float64, []int, error) {
	hi, err := g.Period(nil)
	if err != nil {
		return 0, nil, err
	}
	bestP := hi
	bestR := make([]int, len(g.Verts))
	lo := 1.0
	for lo <= hi {
		mid := float64(int((lo + hi) / 2))
		r, err := g.Feasible(mid)
		if err != nil {
			return 0, nil, err
		}
		if r != nil {
			bestP = mid
			bestR = r
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return bestP, bestR, nil
}

// Apply rebuilds the network with flip-flops repositioned per the
// retiming. New flip-flops initialize to zero, so the retimed circuit is
// equivalent to the original after a warm-up of at most MaxLatency
// cycles (exactly equivalent for pipeline-style circuits once primary
// inputs have propagated).
func (g *Graph) Apply(r []int) (*logic.Network, error) {
	if !g.Legal(r) {
		return nil, fmt.Errorf("retime: illegal retiming")
	}
	nw := g.nw
	out := logic.New(nw.Name + "_rt")
	mapped := make(map[logic.NodeID]logic.NodeID) // original gate/PI -> new node
	for _, pi := range nw.PIs() {
		id, err := out.AddInput(nw.Node(pi).Name)
		if err != nil {
			return nil, err
		}
		mapped[pi] = id
	}
	for _, id := range nw.Live() {
		n := nw.Node(id)
		if n.Type == logic.Const0 || n.Type == logic.Const1 {
			c, err := out.AddConst(n.Name, n.Type == logic.Const1)
			if err != nil {
				return nil, err
			}
			mapped[id] = c
		}
	}
	// delayed(src, k): src's new-network signal delayed through k new FFs,
	// cached for sharing.
	type dk struct {
		src logic.NodeID
		k   int
	}
	ffCache := make(map[dk]logic.NodeID)
	var delayed func(src logic.NodeID, k int) (logic.NodeID, error)
	delayed = func(src logic.NodeID, k int) (logic.NodeID, error) {
		if k == 0 {
			return mapped[src], nil
		}
		if id, ok := ffCache[dk{src, k}]; ok {
			return id, nil
		}
		prev, err := delayed(src, k-1)
		if err != nil {
			return logic.InvalidNode, err
		}
		name := fmt.Sprintf("%s_ff%d", nw.Node(src).Name, k)
		id, err := out.AddDFF(out.FreshName(name), prev, false)
		if err != nil {
			return logic.InvalidNode, err
		}
		ffCache[dk{src, k}] = id
		return id, nil
	}

	// Rebuild gates in an order where all fanin sources are ready. Gate
	// fanin sources are gates/PIs/consts; gates may depend on gates through
	// zero or more FFs. With positive-weight edges, the source may come
	// later; we iterate until all are built.
	// Collect per-gate fanin edge list in fanin order.
	faninEdges := make(map[logic.NodeID][]Edge)
	{
		for _, id := range nw.Gates() {
			n := nw.Node(id)
			for _, f := range n.Fanin {
				src, w := f, 0
				for nw.Node(src).Type == logic.DFF {
					w++
					src = nw.Node(src).Fanin[0]
				}
				to := g.Index[id]
				from := Host
				if nw.Node(src).Type.IsGate() {
					from = g.Index[src]
				}
				wr := w + r[to] - r[from]
				faninEdges[id] = append(faninEdges[id], Edge{From: from, To: to, Weight: wr, srcNode: src})
			}
		}
	}
	remaining := nw.Gates()
	for len(remaining) > 0 {
		progressed := false
		var next []logic.NodeID
		for _, id := range remaining {
			ready := true
			for _, e := range faninEdges[id] {
				if _, ok := mapped[e.srcNode]; !ok {
					ready = false
					break
				}
			}
			if !ready {
				next = append(next, id)
				continue
			}
			n := nw.Node(id)
			fan := make([]logic.NodeID, len(n.Fanin))
			for i, e := range faninEdges[id] {
				d, err := delayed(e.srcNode, e.Weight)
				if err != nil {
					return nil, err
				}
				fan[i] = d
			}
			nid, err := out.AddGate(out.FreshName(n.Name), n.Type, fan...)
			if err != nil {
				return nil, err
			}
			mapped[id] = nid
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("retime: cyclic zero-delay dependency while rebuilding")
		}
		remaining = next
	}
	// Primary outputs: original PO weight adjusted by r of the source.
	for _, po := range nw.POs() {
		src, w := po, 0
		for nw.Node(src).Type == logic.DFF {
			w++
			src = nw.Node(src).Fanin[0]
		}
		from := Host
		if nw.Node(src).Type.IsGate() {
			from = g.Index[src]
		}
		wr := w + 0 - r[from] // host r = 0
		d, err := delayed(src, wr)
		if err != nil {
			return nil, err
		}
		if err := out.MarkOutput(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PowerResult reports a retiming candidate's measured cost.
type PowerResult struct {
	Retiming []int
	Period   float64
	FFs      int
	Power    float64
	Glitches int64
}

// LowPower searches for a retiming meeting the target period (negative =
// the minimum achievable) that minimizes simulated total power, using
// local moves from the min-period solution: the FF-position choices that
// FEAS leaves open are resolved toward registers on glitchy, high-fanout
// nets, which filter spurious transitions [29]. clockCap is charged per
// flip-flop per cycle. The evaluation simulates `vectors`.
func LowPower(nw *logic.Network, targetPeriod float64, vectors sim.Stimulus, p power.Params, clockCap float64) (PowerResult, error) {
	g, err := BuildGraph(nw)
	if err != nil {
		return PowerResult{}, err
	}
	minP, r0, err := g.MinPeriod()
	if err != nil {
		return PowerResult{}, err
	}
	target := targetPeriod
	if target < 0 {
		target = minP
	} else if target < minP {
		return PowerResult{}, fmt.Errorf("retime: target period %v below minimum %v", target, minP)
	} else {
		if rT, err := g.Feasible(target); err == nil && rT != nil {
			r0 = rT
		}
	}

	eval := func(r []int) (PowerResult, error) {
		net, err := g.Apply(r)
		if err != nil {
			return PowerResult{}, err
		}
		rep, err := power.Estimate(context.TODO(), net, power.Spec{Method: power.MethodSimulated, Params: p, Vectors: vectors})
		if err != nil {
			return PowerResult{}, err
		}
		ffs := len(net.FFs())
		period, err := g.Period(r)
		if err != nil {
			return PowerResult{}, err
		}
		total := rep.Total() + clockCap*float64(ffs)*p.Vdd*p.Vdd*p.Freq
		return PowerResult{
			Retiming: append([]int(nil), r...),
			Period:   period,
			FFs:      ffs,
			Power:    total,
			Glitches: rep.Totals.Spurious,
		}, nil
	}
	best, err := eval(r0)
	if err != nil {
		return PowerResult{}, err
	}
	// Candidate generation, two kinds of moves:
	//  - cut moves: increment r for every vertex at combinational depth
	//    >= L, which slides a whole register boundary backwards across a
	//    level — the move that relocates an output register bank into the
	//    middle of glitchy logic;
	//  - single-vertex nudges around the incumbent.
	depth := make([]int, len(g.Verts))
	{
		// Longest path (in gates) from any source, on the full edge set
		// ignoring weights — a static layering for cut construction.
		adj := make([][]int, len(g.Verts))
		indeg := make([]int, len(g.Verts))
		for _, e := range g.Edges {
			if e.To == Host || e.From == e.To {
				continue
			}
			adj[e.From] = append(adj[e.From], e.To)
			indeg[e.To]++
		}
		var queue []int
		for v := range indeg {
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, c := range adj[v] {
				if depth[v]+1 > depth[c] {
					depth[c] = depth[v] + 1
				}
				indeg[c]--
				if indeg[c] == 0 {
					queue = append(queue, c)
				}
			}
		}
	}
	maxDepth := 0
	for _, dv := range depth {
		if dv > maxDepth {
			maxDepth = dv
		}
	}
	tryCand := func(cand []int) error {
		if !g.Legal(cand) {
			return nil
		}
		per, err := g.Period(cand)
		if err != nil || per > target+1e-9 {
			return nil
		}
		res, err := eval(cand)
		if err != nil {
			return err
		}
		if res.Power < best.Power-1e-9 {
			best = res
		}
		return nil
	}
	for level := 1; level <= maxDepth; level++ {
		cand := append([]int(nil), r0...)
		for v := 1; v < len(g.Verts); v++ {
			if depth[v] >= level {
				cand[v]++
			}
		}
		if err := tryCand(cand); err != nil {
			return best, err
		}
	}
	// Single-vertex refinement around the incumbent.
	improved := true
	for rounds := 0; improved && rounds < 6; rounds++ {
		improved = false
		order := make([]int, len(g.Verts))
		for i := range order {
			order[i] = i
		}
		sort.Ints(order)
		before := best.Power
		for _, v := range order {
			if v == Host {
				continue
			}
			for _, dv := range []int{1, -1} {
				cand := append([]int(nil), best.Retiming...)
				cand[v] += dv
				if err := tryCand(cand); err != nil {
					return best, err
				}
			}
		}
		if best.Power < before-1e-9 {
			improved = true
		}
	}
	return best, nil
}

// MeasureFFActivityRatio simulates the network and returns the average
// ratio of flip-flop input (D) activity to output (Q) activity — the
// survey's §III.C.2 observation quantified. Ratios above 1 mean registers
// are filtering spurious transitions.
func MeasureFFActivityRatio(nw *logic.Network, r *rand.Rand, cycles int) (float64, error) {
	s, err := sim.New(nw)
	if err != nil {
		return 0, err
	}
	if _, err := s.Run(sim.RandomStimulus(r, cycles, len(nw.PIs()), 0.5)); err != nil {
		return 0, err
	}
	totD, totQ := 0.0, 0.0
	for _, ff := range nw.FFs() {
		d := nw.Node(ff).Fanin[0]
		totD += s.Activity(d)
		totQ += s.Activity(ff)
	}
	if totQ == 0 {
		return 0, fmt.Errorf("retime: no flip-flop output activity measured")
	}
	return totD / totQ, nil
}
