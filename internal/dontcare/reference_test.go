package dontcare

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sop"
)

// This file keeps the straightforward per-gate-fresh don't-care algorithm
// as a test oracle: every gate rebuilds the whole network's global BDDs for
// its analysis, rebuilds them again with the gate cut for its ODC, and
// scores NetworkPower candidates with full exact power.Estimate runs. The
// production pass shares one BDD view per pass and must reproduce it bit
// for bit.

// refAnalyzer is one fresh global BDD view.
type refAnalyzer struct {
	nw *logic.Network
	nb *bdd.NetworkBDDs
}

func refNewAnalyzer(nw *logic.Network) (*refAnalyzer, error) {
	nb, err := bdd.FromNetwork(nw)
	if err != nil {
		return nil, err
	}
	return &refAnalyzer{nw: nw, nb: nb}, nil
}

// odc allocates a fresh cut variable and rebuilds every node.
func (a *refAnalyzer) odc(id logic.NodeID) (bdd.Ref, error) {
	m := a.nb.M
	z := m.AddVar()
	zRef := m.Var(z)
	fn := make(map[logic.NodeID]bdd.Ref, len(a.nb.Fn))
	for _, src := range a.nb.Vars {
		fn[src] = a.nb.Fn[src]
	}
	order, err := a.nw.TopoOrder()
	if err != nil {
		return bdd.False, err
	}
	for _, nid := range order {
		if nid == id {
			fn[nid] = zRef
			continue
		}
		n := a.nw.Node(nid)
		var f bdd.Ref
		switch n.Type {
		case logic.Const0:
			f = bdd.False
		case logic.Const1:
			f = bdd.True
		default:
			args := make([]bdd.Ref, len(n.Fanin))
			for i, fi := range n.Fanin {
				args[i] = fn[fi]
			}
			f, err = bdd.ApplyGate(m, n.Type, args)
			if err != nil {
				return bdd.False, err
			}
		}
		fn[nid] = f
	}
	odc := bdd.True
	seen := map[logic.NodeID]bool{}
	endpoint := func(e logic.NodeID) {
		if seen[e] {
			return
		}
		seen[e] = true
		f := fn[e]
		eq := m.Xnor(m.Restrict(f, z, false), m.Restrict(f, z, true))
		odc = m.And(odc, eq)
	}
	for _, po := range a.nw.POs() {
		endpoint(po)
	}
	for _, ff := range a.nw.FFs() {
		endpoint(a.nw.Node(ff).Fanin[0])
	}
	return odc, nil
}

func refAnalyze(nw *logic.Network, id logic.NodeID, inputProb power.Probabilities, useODC bool) (*NodeDC, error) {
	n := nw.Node(id)
	if n == nil || !n.Type.IsGate() {
		return nil, fmt.Errorf("dontcare: node %d is not a gate", id)
	}
	k := len(n.Fanin)
	if k > 12 {
		return nil, fmt.Errorf("dontcare: node %q has %d fanins (max 12)", n.Name, k)
	}
	a, err := refNewAnalyzer(nw)
	if err != nil {
		return nil, err
	}
	m := a.nb.M
	pv := make([]float64, m.NumVars())
	for i, src := range a.nb.Vars {
		p := 0.5
		if inputProb != nil {
			if q, ok := inputProb[src]; ok {
				p = q
			}
		}
		pv[i] = p
	}
	var odcRef bdd.Ref = bdd.False
	if useODC {
		odcRef, err = a.odc(id)
		if err != nil {
			return nil, err
		}
		for len(pv) < m.NumVars() {
			pv = append(pv, 0.5)
		}
	}
	res := &NodeDC{
		Node:        id,
		Fanins:      append([]logic.NodeID(nil), n.Fanin...),
		On:          localOnSet(n),
		DC:          sop.NewCover(k),
		PatternProb: make([]float64, 1<<k),
	}
	for pat := 0; pat < 1<<k; pat++ {
		cons := bdd.True
		for j, fi := range n.Fanin {
			fj := a.nb.Fn[fi]
			if pat&(1<<j) == 0 {
				fj = m.Not(fj)
			}
			cons = m.And(cons, fj)
		}
		res.PatternProb[pat] = m.Probability(cons, pv)
		isDC := false
		if cons == bdd.False {
			isDC = true
		} else if useODC {
			if m.And(cons, m.Not(odcRef)) == bdd.False {
				isDC = true
			}
		}
		if isDC {
			res.DC.Cubes = append(res.DC.Cubes, mintermCube(pat, k))
		}
	}
	return res, nil
}

func refGlobalODC(nw *logic.Network, id logic.NodeID) (*bdd.Manager, bdd.Ref, []logic.NodeID, error) {
	n := nw.Node(id)
	if n == nil || !n.Type.IsGate() {
		return nil, bdd.False, nil, fmt.Errorf("dontcare: node %d is not a gate", id)
	}
	a, err := refNewAnalyzer(nw)
	if err != nil {
		return nil, bdd.False, nil, err
	}
	odcRef, err := a.odc(id)
	if err != nil {
		return nil, bdd.False, nil, err
	}
	return a.nb.M, odcRef, append([]logic.NodeID(nil), a.nb.Vars...), nil
}

func refOptimizeNetwork(nw *logic.Network, opts Options) (Result, error) {
	if opts.Params == (power.Params{}) {
		opts.Params = power.DefaultParams()
	}
	var res Result
	for _, id := range nw.Gates() {
		n := nw.Node(id)
		if n == nil || !n.Type.IsGate() || n.Type == logic.Buf || n.Type == logic.Not {
			continue
		}
		if len(n.Fanin) > maxFanin {
			continue
		}
		res.NodesVisited++
		changed, err := refOptimizeNode(nw, id, opts)
		if err != nil {
			return res, err
		}
		if changed {
			res.NodesRewritten++
		}
	}
	nw.SweepDead()
	return res, nil
}

func refOptimizeNode(nw *logic.Network, id logic.NodeID, opts Options) (bool, error) {
	dc, err := refAnalyze(nw, id, opts.InputProb, opts.UseODC)
	if err != nil {
		return false, err
	}
	if dc.DC.IsEmpty() {
		return false, nil
	}
	k := len(nw.Node(id).Fanin)
	var cands []*sop.Cover
	areaCover, err := sop.Minimize(dc.On, sop.MinimizeOptions{DontCare: dc.DC})
	if err != nil {
		return false, err
	}
	cands = append(cands, areaCover)
	if opts.Objective != Area {
		lo, hi := refDCPolarized(dc, k)
		loMin, err := sop.Minimize(lo, sop.MinimizeOptions{})
		if err != nil {
			return false, err
		}
		hiMin, err := sop.Minimize(hi, sop.MinimizeOptions{})
		if err != nil {
			return false, err
		}
		cands = append(cands, loMin, hiMin)
	}
	switch opts.Objective {
	case Area:
		if areaCover.NumLiterals() < dc.On.NumLiterals() {
			return applyCover(nw, id, areaCover, dc.Fanins)
		}
		return false, nil
	case NodeActivity:
		best, bestDist := -1, -1.0
		for i, c := range cands {
			d := math.Abs(refCoverProb(c, dc.PatternProb, k) - 0.5)
			if d > bestDist {
				best, bestDist = i, d
			}
		}
		curDist := math.Abs(refCoverProb(dc.On, dc.PatternProb, k) - 0.5)
		if bestDist <= curDist+1e-12 {
			return false, nil
		}
		return applyCover(nw, id, cands[best], dc.Fanins)
	case NetworkPower:
		cur := nw.Clone()
		cur.SweepDead()
		base, err := power.Estimate(context.Background(), cur, power.Spec{Method: power.MethodExact, Params: opts.Params, InputProb: opts.InputProb})
		if err != nil {
			return false, err
		}
		bestPower := base.Total()
		var bestCover *sop.Cover
		for _, c := range cands {
			trial := nw.Clone()
			if _, err := applyCover(trial, id, c, dc.Fanins); err != nil {
				return false, err
			}
			trial.SweepDead()
			rep, err := power.Estimate(context.Background(), trial, power.Spec{Method: power.MethodExact, Params: opts.Params, InputProb: opts.InputProb})
			if err != nil {
				return false, err
			}
			if rep.Total() < bestPower-1e-9 {
				bestPower = rep.Total()
				bestCover = c
			}
		}
		if bestCover == nil {
			return false, nil
		}
		return applyCover(nw, id, bestCover, dc.Fanins)
	}
	return false, fmt.Errorf("dontcare: unknown objective %v", opts.Objective)
}

// refDCPolarized is dcPolarized evaluating both covers cube by cube on
// every pattern.
func refDCPolarized(dc *NodeDC, k int) (lo, hi *sop.Cover) {
	lo = sop.NewCover(k)
	hi = dc.On.Clone()
	for pat := 0; pat < 1<<k; pat++ {
		m := patternBits(pat, k)
		inDC := dc.DC.Eval(m)
		on := dc.On.Eval(m)
		if on && !inDC {
			lo.Cubes = append(lo.Cubes, mintermCube(pat, k))
		}
		if inDC && !on {
			hi.Cubes = append(hi.Cubes, mintermCube(pat, k))
		}
	}
	return lo, hi
}

// refCoverProb is coverProb evaluating the cover cube by cube on every
// pattern.
func refCoverProb(cv *sop.Cover, patternProb []float64, k int) float64 {
	p := 0.0
	for pat := 0; pat < 1<<k; pat++ {
		if cv.Eval(patternBits(pat, k)) {
			p += patternProb[pat]
		}
	}
	return p
}

func patternBits(pat, k int) []bool {
	m := make([]bool, k)
	for j := 0; j < k; j++ {
		m[j] = pat&(1<<j) != 0
	}
	return m
}
