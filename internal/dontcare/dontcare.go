// Package dontcare computes controllability and observability don't-cares
// of internal network nodes and uses them to re-implement nodes for lower
// power (survey §III.A.1).
//
// The controllability don't-care set of a gate holds the local fanin
// patterns that can never occur; the observability don't-care set holds
// the input conditions under which the gate's value cannot affect any
// primary output. Area-driven simplification with these sets is classic
// ([37]); Shen et al. [38] redirected it at power by assigning don't-care
// minterms so as to push the node's signal probability away from 1/2,
// minimizing 2·p·(1−p) switching activity, and Iman and Pedram [19]
// refined the choice by accounting for the node's transitive fanout.
//
// Cost model. OptimizeNetwork builds the network's global BDDs once per
// pass and keeps that one view for every gate it visits. A gate's ODC
// rebuilds only the gate's transitive fanout (with the gate cut to 0 and
// to 1); the NetworkPower objective scores each candidate cover by
// building only the rewritten clone's changed nodes in the shared manager
// and summing Eqn. 1 exactly as the exact power.Estimate would, against
// the current network scored the same way (swept of the gates earlier
// rewrites left dangling, so their power cannot flatter a worse
// candidate); an accepted rewrite refreshes only the new and rewired nodes
// and whatever fanout their changed functions reach. Between gates the
// manager is garbage-collected, pinning the view, whenever its live node
// count has doubled since the last collection. Every decision, and so
// every rewritten network, is bit-identical to rebuilding the global BDDs
// from scratch for each gate.
//
// In front of the exact analysis sits a simulation witness filter. The
// pass simulates every live node, 64 rows per word with
// logic.Compiled.EvalWord, over R rows of the sources: all 2^n when
// n <= 11, otherwise 2048 from a fixed-seed generator. A row that puts
// gate g's fanins at pattern p and under which flipping g changes some PO
// or FF D input (g's transitive fanout re-simulated with g inverted;
// without UseODC every row counts) lies in cons_p ∧ ¬ODC, so p is neither
// a controllability nor an observability don't-care. When all 2^k patterns
// have such a witness the don't-care set is provably empty and the gate is
// skipped without touching the BDDs. Otherwise the exact analysis runs,
// told which patterns are witnessed: it needs g's ODC only for a
// producible pattern without a witness, and when there is none (the
// don't-care set is then exactly the unproducible patterns) the two fanout
// rebuilds are skipped. An accepted rewrite re-simulates the whole
// network. Skipping changes only which Refs the manager holds and when it
// collects, and every decision depends on canonical functions (Ref
// equality within one manager, Leq, probabilities over a fixed order), so
// the rewritten networks stay bit-identical. The dontcare.gates.visited
// and dontcare.gates.witnessed counters record each pass's totals.
package dontcare

import (
	"fmt"

	"repro/internal/bdd"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sop"
)

// NodeDC describes the local don't-care environment of one gate.
type NodeDC struct {
	Node   logic.NodeID
	Fanins []logic.NodeID
	// On is the gate's local ON-set cover over its fanins.
	On *sop.Cover
	// DC is the local don't-care cover (CDC ∪ projected ODC patterns).
	DC *sop.Cover
	// PatternProb[i] is the exact probability of local fanin pattern i
	// (bit j of i = value of fanin j), computed from the global BDDs.
	PatternProb []float64
}

// analyzer is the global BDD view of a network shared by every gate of a
// pass: the functions of all live nodes over the circuit sources, built
// once, plus the source probabilities. Per-gate work only builds what
// differs from this view — the gate's transitive fanout for its ODC, the
// changed nodes of a candidate rewrite — and an accepted rewrite refreshes
// just the nodes it touched.
type analyzer struct {
	nw *logic.Network
	nb *bdd.NetworkBDDs
	m  *bdd.Manager
	// pv holds the per-variable source probabilities.
	pv []float64
	// prob memoizes Probability by Ref; maybeCollect clears it, since a
	// collection frees Refs for reuse.
	prob map[bdd.Ref]float64
	// gcLive is the live node count after the last collection.
	gcLive int
	// applied is set once apply has rewritten the network, which may
	// leave gates without fanout until the pass sweeps at its end.
	applied bool
}

// newAnalyzer builds the network's global BDDs.
func newAnalyzer(nw *logic.Network, inputProb power.Probabilities) (*analyzer, error) {
	nb, err := bdd.FromNetwork(nw)
	if err != nil {
		return nil, err
	}
	a := &analyzer{nw: nw, nb: nb, m: nb.M, prob: make(map[bdd.Ref]float64)}
	a.pv = make([]float64, a.m.NumVars())
	for i, src := range nb.Vars {
		a.pv[i] = 0.5
		if q, ok := inputProb[src]; ok {
			a.pv[i] = q
		}
	}
	a.gcLive = a.m.Size()
	return a, nil
}

// fn returns a node's function: its override in over if any, else the
// shared view's.
func (a *analyzer) fn(over map[logic.NodeID]bdd.Ref, id logic.NodeID) bdd.Ref {
	if f, ok := over[id]; ok {
		return f
	}
	return a.nb.Fn[id]
}

// rebuild adds to over the function of every node of nw that may differ
// from the shared view: nodes the view lacks, nodes in seed (rewired
// fanins), and nodes with a fanin already in over. Entries of over on
// entry are fixed (a cut) and kept as given. A rebuilt node whose
// function equals its shared one is left out, so propagation stops where
// a change is absorbed. nw is the analyzed network or a clone of it.
func (a *analyzer) rebuild(nw *logic.Network, over map[logic.NodeID]bdd.Ref, seed map[logic.NodeID]bool) error {
	order, err := nw.TopoOrder()
	if err != nil {
		return err
	}
	fixed := len(over)
	var args []bdd.Ref
	for _, id := range order {
		if fixed > 0 {
			if _, ok := over[id]; ok {
				continue
			}
		}
		n := nw.Node(id)
		base, known := a.nb.Fn[id]
		if known && !seed[id] && !anyIn(n.Fanin, over) {
			continue
		}
		var f bdd.Ref
		switch n.Type {
		case logic.Const0:
			f = bdd.False
		case logic.Const1:
			f = bdd.True
		default:
			args = args[:0]
			for _, fi := range n.Fanin {
				args = append(args, a.fn(over, fi))
			}
			if f, err = bdd.ApplyGate(a.m, n.Type, args); err != nil {
				return err
			}
		}
		if !known || f != base {
			over[id] = f
		}
	}
	return nil
}

func anyIn(ids []logic.NodeID, over map[logic.NodeID]bdd.Ref) bool {
	if len(over) == 0 {
		return false
	}
	for _, id := range ids {
		if _, ok := over[id]; ok {
			return true
		}
	}
	return false
}

// consumers returns the distinct fanout nodes of id: the nodes a
// ReplaceNode of id rewires.
func consumers(nw *logic.Network, id logic.NodeID) map[logic.NodeID]bool {
	out := make(map[logic.NodeID]bool)
	for _, c := range nw.Node(id).Fanout() {
		out[c] = true
	}
	return out
}

// odc returns the observability don't-care function of node id over the
// circuit input variables: the set of input vectors for which flipping the
// node changes no primary output and no flip-flop input. Only id's
// transitive fanout is rebuilt, twice, with id cut to the constants 0 and
// 1: those are the two cofactors of the classic construction that cuts id
// to a free variable z, so each endpoint contributes XNOR of its
// cofactors, and an endpoint outside the fanout contributes True.
func (a *analyzer) odc(id logic.NodeID) (bdd.Ref, error) {
	m := a.m
	cut0 := map[logic.NodeID]bdd.Ref{id: bdd.False}
	cut1 := map[logic.NodeID]bdd.Ref{id: bdd.True}
	if err := a.rebuild(a.nw, cut0, nil); err != nil {
		return bdd.False, err
	}
	if err := a.rebuild(a.nw, cut1, nil); err != nil {
		return bdd.False, err
	}
	// Endpoints: POs and FF D inputs.
	odc := bdd.True
	endpoint := func(e logic.NodeID) {
		if f0, f1 := a.fn(cut0, e), a.fn(cut1, e); f0 != f1 {
			odc = m.And(odc, m.Xnor(f0, f1))
		}
	}
	for _, po := range a.nw.POs() {
		endpoint(po)
	}
	for _, ff := range a.nw.FFs() {
		endpoint(a.nw.Node(ff).Fanin[0])
	}
	return odc, nil
}

// probability returns the exact 1-probability of f under the source
// probabilities, memoized by Ref.
func (a *analyzer) probability(f bdd.Ref) float64 {
	p, ok := a.prob[f]
	if !ok {
		p = a.m.Probability(f, a.pv)
		a.prob[f] = p
	}
	return p
}

// power returns the exact zero-delay Eqn. 1 total of nw (the analyzed
// network or a rewritten clone whose differing functions are in over):
// the summation the exact power.Estimate performs, over the same per-node
// probabilities, so the floats are identical.
func (a *analyzer) power(nw *logic.Network, over map[logic.NodeID]bdd.Ref, p power.Params) float64 {
	live := nw.Live()
	ps := make(power.Probabilities, len(live))
	for _, id := range live {
		ps[id] = a.probability(a.fn(over, id))
	}
	return power.Evaluate(nw, p, nil, ps.Activity).Total()
}

// apply rewrites gate id of the analyzed network as the cover and
// refreshes the shared view: only the new nodes, the rewired consumers and
// whatever fanout their changed functions reach are rebuilt.
func (a *analyzer) apply(id logic.NodeID, cv *sop.Cover, fanins []logic.NodeID) (bool, error) {
	seed := consumers(a.nw, id)
	if _, err := applyCover(a.nw, id, cv, fanins); err != nil {
		return false, err
	}
	over := make(map[logic.NodeID]bdd.Ref)
	if err := a.rebuild(a.nw, over, seed); err != nil {
		return false, err
	}
	delete(a.nb.Fn, id)
	for nid, f := range over {
		a.nb.Fn[nid] = f
	}
	a.applied = true
	return true, nil
}

// maybeCollect garbage-collects the manager, pinning the shared view,
// once the live node count has doubled since the last collection: the
// per-gate ODC and candidate functions are dropped between gates, so the
// arena stays proportional to the view.
func (a *analyzer) maybeCollect() {
	if a.m.Size() < 2*a.gcLive {
		return
	}
	roots := make([]bdd.Ref, 0, len(a.nb.Fn))
	for _, f := range a.nb.Fn {
		roots = append(roots, f)
	}
	a.m.GC(roots)
	a.gcLive = a.m.Size()
	clear(a.prob)
}

// Analyze computes the local don't-care environment of a gate with
// inputProb giving source probabilities (nil = uniform). useODC controls
// whether observability don't-cares are included (the [19] refinement over
// pure satisfiability/controllability analysis).
func Analyze(nw *logic.Network, id logic.NodeID, inputProb power.Probabilities, useODC bool) (*NodeDC, error) {
	if err := checkGate(nw, id); err != nil {
		return nil, err
	}
	a, err := newAnalyzer(nw, inputProb)
	if err != nil {
		return nil, err
	}
	return a.analyze(id, useODC, nil)
}

// checkGate validates an Analyze target.
func checkGate(nw *logic.Network, id logic.NodeID) error {
	n := nw.Node(id)
	if n == nil || !n.Type.IsGate() {
		return fmt.Errorf("dontcare: node %d is not a gate", id)
	}
	if k := len(n.Fanin); k > 12 {
		return fmt.Errorf("dontcare: node %q has %d fanins (max 12)", n.Name, k)
	}
	return nil
}

// analyze is Analyze over the shared view. observed, when not nil, marks
// local patterns known to occur on an input under which the gate is
// observable (the witness filter's rows): such a pattern is no don't-care,
// so its ODC test is skipped, and when it covers every producible pattern
// the gate's ODC is not built at all. The result is the same either way.
func (a *analyzer) analyze(id logic.NodeID, useODC bool, observed []bool) (*NodeDC, error) {
	if err := checkGate(a.nw, id); err != nil {
		return nil, err
	}
	n := a.nw.Node(id)
	k := len(n.Fanin)
	m := a.m
	cons := a.patterns(n.Fanin)
	// open marks the patterns whose observability is still in question.
	open := func(pat int) bool {
		return useODC && cons[pat] != bdd.False && (observed == nil || !observed[pat])
	}
	odcRef := bdd.False
	for pat := range cons {
		if open(pat) {
			var err error
			if odcRef, err = a.odc(id); err != nil {
				return nil, err
			}
			break
		}
	}
	res := &NodeDC{
		Node:        id,
		Fanins:      append([]logic.NodeID(nil), n.Fanin...),
		On:          localOnSet(n),
		DC:          sop.NewCover(k),
		PatternProb: make([]float64, 1<<k),
	}
	for pat, c := range cons {
		res.PatternProb[pat] = a.probability(c)
		// CDC: the pattern is not producible. ODC: every producing input
		// is unobservable.
		if c == bdd.False || (open(pat) && m.Leq(c, odcRef)) {
			res.DC.Cubes = append(res.DC.Cubes, mintermCube(pat, k))
		}
	}
	return res, nil
}

// patterns returns the characteristic function of every local fanin
// pattern — cons[pat] holds the inputs driving fanin j to bit j of pat for
// every j — built as a cofactor tree over the fanin functions: 2^(k+1)
// conjunctions instead of k·2^k, and none below an unproducible prefix.
func (a *analyzer) patterns(fanins []logic.NodeID) []bdd.Ref {
	m := a.m
	k := len(fanins)
	cons := make([]bdd.Ref, 1<<k) // zero value: bdd.False
	var walk func(j, pat int, acc bdd.Ref)
	walk = func(j, pat int, acc bdd.Ref) {
		if acc == bdd.False {
			return
		}
		if j == k {
			cons[pat] = acc
			return
		}
		f := a.nb.Fn[fanins[j]]
		walk(j+1, pat, m.And(acc, m.Not(f)))
		walk(j+1, pat|1<<j, m.And(acc, f))
	}
	walk(0, 0, bdd.True)
	return cons
}

// GlobalODC computes the observability don't-care function of a node over
// the circuit's source variables (variable i is vars[i]: PIs then FFs, in
// declaration order; their levels follow bdd.FromNetwork's depth-first
// order): the set of input vectors under which the node's value cannot
// influence any primary output or flip-flop input. Used by guarded
// evaluation [44], which synthesizes this condition into shut-off logic.
// The returned manager carries one more variable than vars, at the bottom
// of the order: the cut variable of the free-variable ODC construction,
// on which the ODC never depends.
func GlobalODC(nw *logic.Network, id logic.NodeID) (m *bdd.Manager, odc bdd.Ref, vars []logic.NodeID, err error) {
	n := nw.Node(id)
	if n == nil || !n.Type.IsGate() {
		return nil, bdd.False, nil, fmt.Errorf("dontcare: node %d is not a gate", id)
	}
	a, err := newAnalyzer(nw, nil)
	if err != nil {
		return nil, bdd.False, nil, err
	}
	a.m.AddVar()
	odcRef, err := a.odc(id)
	if err != nil {
		return nil, bdd.False, nil, err
	}
	return a.m, odcRef, append([]logic.NodeID(nil), a.nb.Vars...), nil
}

// localOnSet builds the gate's function as a cover over its fanins.
func localOnSet(n *logic.Node) *sop.Cover {
	k := len(n.Fanin)
	cv := sop.NewCover(k)
	in := make([]bool, k)
	for pat := 0; pat < 1<<k; pat++ {
		for j := 0; j < k; j++ {
			in[j] = pat&(1<<j) != 0
		}
		if logic.EvalGate(n.Type, in) {
			cube := make(sop.Cube, k)
			for j := 0; j < k; j++ {
				if in[j] {
					cube[j] = sop.One
				} else {
					cube[j] = sop.Zero
				}
			}
			cv.Cubes = append(cv.Cubes, cube)
		}
	}
	return cv
}
