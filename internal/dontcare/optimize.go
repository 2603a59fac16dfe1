package dontcare

import (
	"fmt"
	"math"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/power"
	"repro/internal/sop"
)

// Objective selects what the don't-care assignment optimizes.
type Objective int

// Objectives.
const (
	// Area minimizes literal count (the classic use of don't-cares [37]).
	Area Objective = iota
	// NodeActivity pushes the node's signal probability away from 1/2 to
	// minimize its own switching activity (Shen et al. [38]).
	NodeActivity
	// NetworkPower evaluates candidate implementations by exact
	// whole-network power, capturing the effect on the transitive fanout
	// (Iman/Pedram [19]).
	NetworkPower
)

func (o Objective) String() string {
	switch o {
	case Area:
		return "area"
	case NodeActivity:
		return "node-activity"
	case NetworkPower:
		return "network-power"
	}
	return fmt.Sprintf("objective(%d)", int(o))
}

// Options configures the network optimization pass.
type Options struct {
	Objective Objective
	// UseODC includes observability don't-cares (default: only
	// controllability). ODCs are what make the fanout-aware objective
	// meaningful.
	UseODC bool
	// InputProb gives source-node probabilities (nil = uniform).
	InputProb power.Probabilities
	// Params for power evaluation under the NetworkPower objective.
	Params power.Params
}

// maxFanin is the largest local input count of a gate OptimizeNetwork
// rewrites; wider gates are skipped.
const maxFanin = 8

// Result reports the pass outcome.
type Result struct {
	NodesRewritten int
	NodesVisited   int
}

// OptimizeNetwork rewrites gates of the network in place using their
// don't-care sets, per the configured objective. The network's primary
// output functions are preserved exactly.
//
// The pass shares one global BDD view across every gate it visits; the
// package documentation gives its cost model.
func OptimizeNetwork(nw *logic.Network, opts Options) (Result, error) {
	if opts.Params == (power.Params{}) {
		opts.Params = power.DefaultParams()
	}
	var res Result
	var a *analyzer
	var wit *witness
	witnessed := 0
	defer func() {
		reg := obsv.Default()
		reg.Counter("dontcare.gates.visited").Add(int64(res.NodesVisited))
		reg.Counter("dontcare.gates.witnessed").Add(int64(witnessed))
	}()
	// Snapshot gate list: rewrites add nodes we must not revisit.
	gates := nw.Gates()
	for _, id := range gates {
		n := nw.Node(id)
		if n == nil || !n.Type.IsGate() || n.Type == logic.Buf || n.Type == logic.Not {
			continue
		}
		if len(n.Fanin) > maxFanin {
			continue
		}
		res.NodesVisited++
		if a == nil {
			var err error
			if a, err = newAnalyzer(nw, opts.InputProb); err != nil {
				return res, err
			}
			if wit, err = newWitness(nw, a.nb.Vars); err != nil {
				return res, err
			}
		}
		// A gate whose don't-care set simulation proves empty would come
		// back unchanged from the exact analysis.
		observed, all := wit.witnessed(id, opts.UseODC)
		if all {
			witnessed++
			continue
		}
		changed, err := a.optimizeNode(id, opts, observed)
		if err != nil {
			return res, err
		}
		if changed {
			res.NodesRewritten++
			if err := wit.refresh(); err != nil {
				return res, err
			}
		}
		a.maybeCollect()
	}
	nw.SweepDead()
	return res, nil
}

// optimizeNode rewrites gate id if its don't-care set allows a better
// cover; observed is passed on to analyze.
func (a *analyzer) optimizeNode(id logic.NodeID, opts Options, observed []bool) (bool, error) {
	dc, err := a.analyze(id, opts.UseODC, observed)
	if err != nil {
		return false, err
	}
	if dc.DC.IsEmpty() {
		return false, nil
	}
	nw := a.nw
	n := nw.Node(id)
	k := len(n.Fanin)

	// Candidate covers.
	type candidate struct {
		cover *sop.Cover
		tag   string
	}
	var cands []candidate

	areaCover, err := sop.Minimize(dc.On, sop.MinimizeOptions{DontCare: dc.DC})
	if err != nil {
		return false, err
	}
	cands = append(cands, candidate{areaCover, "area"})

	if opts.Objective != Area {
		lo, hi, err := dcPolarized(dc, k)
		if err != nil {
			return false, err
		}
		loMin, err := sop.Minimize(lo, sop.MinimizeOptions{})
		if err != nil {
			return false, err
		}
		hiMin, err := sop.Minimize(hi, sop.MinimizeOptions{})
		if err != nil {
			return false, err
		}
		cands = append(cands, candidate{loMin, "dc->0"}, candidate{hiMin, "dc->1"})
	}

	switch opts.Objective {
	case Area:
		// Accept the area cover if it reduces literals vs the current gate.
		cur := float64(dc.On.NumLiterals())
		if float64(areaCover.NumLiterals()) < cur {
			return a.apply(id, areaCover, dc.Fanins)
		}
		return false, nil

	case NodeActivity:
		// Pick the candidate whose node probability is farthest from 1/2.
		best, bestDist := -1, -1.0
		for i, c := range cands {
			p, err := coverProb(c.cover, dc.PatternProb)
			if err != nil {
				return false, err
			}
			if d := math.Abs(p - 0.5); d > bestDist {
				best, bestDist = i, d
			}
		}
		p, err := coverProb(dc.On, dc.PatternProb)
		if err != nil {
			return false, err
		}
		if bestDist <= math.Abs(p-0.5)+1e-12 {
			return false, nil
		}
		return a.apply(id, cands[best].cover, dc.Fanins)

	case NetworkPower:
		// Evaluate each candidate by full-network exact power, building
		// only the rewritten clone's changed nodes in the shared manager.
		// The bar is scored as the candidates are, without the gates
		// earlier applies left dangling: their power would let a worse
		// candidate win.
		cur := nw
		if a.applied {
			cur = nw.Clone()
			cur.SweepDead()
		}
		bestPower := a.power(cur, nil, opts.Params)
		var bestCover *sop.Cover
		seed := consumers(nw, id)
		for _, c := range cands {
			trial := nw.Clone()
			if _, err := applyCover(trial, id, c.cover, dc.Fanins); err != nil {
				return false, err
			}
			trial.SweepDead()
			over := make(map[logic.NodeID]bdd.Ref)
			if err := a.rebuild(trial, over, seed); err != nil {
				return false, err
			}
			if total := a.power(trial, over, opts.Params); total < bestPower-1e-9 {
				bestPower = total
				bestCover = c.cover
			}
		}
		if bestCover == nil {
			return false, nil
		}
		return a.apply(id, bestCover, dc.Fanins)
	}
	return false, fmt.Errorf("dontcare: unknown objective %v", opts.Objective)
}

// dcPolarized returns the two bulk assignments of the DC set: all
// don't-care patterns to 0 (onset = On − DC) and all to 1 (onset = On ∪
// DC). The minterm cubes go in in pattern order, since Minimize's result
// depends on the order of its cubes.
func dcPolarized(dc *NodeDC, k int) (lo, hi *sop.Cover, err error) {
	on, err := dc.On.TruthTable()
	if err != nil {
		return nil, nil, err
	}
	dcs, err := dc.DC.TruthTable()
	if err != nil {
		return nil, nil, err
	}
	lo = sop.NewCover(k)
	hi = dc.On.Clone()
	for pat := 0; pat < 1<<k; pat++ {
		inDC, isOn := dcs.Has(pat), on.Has(pat)
		if isOn && !inDC {
			lo.Cubes = append(lo.Cubes, mintermCube(pat, k))
		}
		if inDC && !isOn {
			hi.Cubes = append(hi.Cubes, mintermCube(pat, k))
		}
	}
	return lo, hi, nil
}

// coverProb computes the node probability of a cover under the exact local
// pattern distribution, summing in pattern order.
func coverProb(cv *sop.Cover, patternProb []float64) (float64, error) {
	t, err := cv.TruthTable()
	if err != nil {
		return 0, err
	}
	p := 0.0
	for pat, q := range patternProb {
		if t.Has(pat) {
			p += q
		}
	}
	return p, nil
}

func mintermCube(pat, k int) sop.Cube {
	c := make(sop.Cube, k)
	for j := 0; j < k; j++ {
		if pat&(1<<j) != 0 {
			c[j] = sop.One
		} else {
			c[j] = sop.Zero
		}
	}
	return c
}

func applyCover(nw *logic.Network, id logic.NodeID, cv *sop.Cover, fanins []logic.NodeID) (bool, error) {
	name := nw.Node(id).Name + "_dc"
	root, err := sop.SynthesizeCover(nw, name, cv, fanins)
	if err != nil {
		return false, err
	}
	if err := nw.ReplaceNode(id, root); err != nil {
		return false, err
	}
	return true, nil
}
