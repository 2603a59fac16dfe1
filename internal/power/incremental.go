package power

import (
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// IncrementalEstimator owns the baseline state that makes repeated
// estimation of a mutating combinational network cheap: the propagated
// probability table and the packed zero-delay lane state (sim.PackedState)
// of the last measurement. Each Measure compares the network with the
// structure it last measured (logic.Shape), derives the cone of the nodes
// that changed, and re-derives only cone members from stored boundary
// values — probabilities through the shared propagateNode kernel, packed
// lanes and transition counts through PackedState.UpdateCone. The
// results are bit-identical to recomputing from scratch with
// PropagatedProbabilities and EstimateZeroDelayPacked: clean nodes' stored
// values are exactly what a full pass would recompute (a live node outside
// the cone has only clean fanins), and cone members go through the same
// kernels in the same topological order.
//
// The estimator falls back to a transparent full recompute whenever reuse
// is unsound or unavailable: the first measurement, after Invalidate, when
// a source (primary input or flip-flop) changed, when the set of
// primary inputs changed, or when the cone exceeds MaxConeFrac. Power
// evaluation (Evaluate) always runs over the full live network — only the
// per-node activity derivation is incremental.
//
// An estimator is bound to one Network instance and one vector stream and
// is not safe for concurrent use. It finds what changed itself, so any
// number of estimators may measure one network.
type IncrementalEstimator struct {
	nw        *logic.Network
	params    Params
	cm        CapModel
	inputProb Probabilities
	vectors   sim.Stimulus
	packErr   error // a ragged vector stream, reported by every Measure

	// MaxConeFrac bounds how large a dirty cone is still worth splicing:
	// when the cone exceeds this fraction of the live combinational nodes
	// the estimator recomputes from scratch instead (the full pass has
	// better constants once most of the network is dirty anyway). Zero
	// disables the bound.
	MaxConeFrac float64

	valid bool
	shape logic.Shape // the structure of the last measurement
	probs Probabilities
	st    sim.PackedState
	pis   []logic.NodeID
}

// NewIncrementalEstimator binds an estimator to a network and a fixed
// evaluation environment. The first Measure takes the full baseline. The
// vectors are packed once, here.
func NewIncrementalEstimator(nw *logic.Network, p Params, cm CapModel, inputProb Probabilities, vectors [][]bool) *IncrementalEstimator {
	st, err := sim.PackVectors(vectors)
	return &IncrementalEstimator{nw: nw, params: p, cm: cm, inputProb: inputProb, vectors: st, packErr: err}
}

// IncrementalResult is one measurement: the propagated-probability report,
// the packed zero-delay Monte Carlo report, and how the measurement was
// obtained.
type IncrementalResult struct {
	Propagated Report
	Packed     Report
	Totals     sim.Totals
	// Incremental reports whether this measurement spliced into the
	// baseline; false means a full recompute (first call, escape hatch,
	// or one of the fallback conditions).
	Incremental bool
	// ConeNodes and CleanNodes split the live combinational node count of
	// an incremental measurement: recomputed vs reused.
	ConeNodes  int
	CleanNodes int
}

// Invalidate discards the baseline, forcing the next Measure to recompute
// from scratch — the full-recompute escape hatch.
func (e *IncrementalEstimator) Invalidate() { e.valid = false }

// Measure returns the current power estimates, re-deriving only the cone
// of the nodes that changed since the last measurement and reusing the
// baseline for the rest where sound. Every call leaves the baseline
// synchronized with the network's current structure (or invalid, on
// error).
func (e *IncrementalEstimator) Measure() (IncrementalResult, error) {
	if e.packErr != nil {
		return IncrementalResult{}, e.packErr
	}
	obs := obsv.Default()
	obs.Counter("flow.incr.measures").Add(1)
	changed := e.shape.Update(e.nw)
	var cone *logic.Cone
	full := !e.valid || len(e.nw.FFs()) > 0
	if !full {
		var err error
		cone, err = e.nw.DirtyCone(changed)
		if err != nil {
			e.valid = false
			return IncrementalResult{}, err
		}
		order, _ := e.nw.TopoOrder()
		switch {
		case len(cone.Sources) > 0:
			full = true
		case !sameIDs(e.pis, e.nw.PIs()):
			full = true
		case e.MaxConeFrac > 0 && float64(len(cone.Members)) > e.MaxConeFrac*float64(len(order)):
			full = true
		}
	}
	if full {
		obs.Counter("flow.incr.full_recomputes").Add(1)
		return e.fullMeasure()
	}
	return e.coneMeasure(cone)
}

func (e *IncrementalEstimator) fullMeasure() (IncrementalResult, error) {
	e.valid = false
	probs, err := PropagatedProbabilities(e.nw, e.inputProb)
	if err != nil {
		return IncrementalResult{}, err
	}
	ps, err := sim.NewPacked(e.nw)
	if err != nil {
		return IncrementalResult{}, err
	}
	tot, err := ps.RunCapture(e.vectors, &e.st)
	if err != nil {
		return IncrementalResult{}, err
	}
	e.probs = probs
	e.pis = append(e.pis[:0], e.nw.PIs()...)
	e.valid = true
	res := IncrementalResult{Totals: tot}
	e.evaluate(&res)
	return res, nil
}

func (e *IncrementalEstimator) coneMeasure(cone *logic.Cone) (IncrementalResult, error) {
	for _, id := range cone.Removed {
		delete(e.probs, id)
	}
	propagated := 0
	var buf []float64
	for _, id := range cone.Members {
		p, counted, err := propagateNode(e.nw.Node(id), e.probs, &buf)
		if err != nil {
			e.valid = false
			return IncrementalResult{}, err
		}
		e.probs[id] = p
		if counted {
			propagated++
		}
	}
	if err := e.st.UpdateCone(e.nw, cone); err != nil {
		e.valid = false
		return IncrementalResult{}, err
	}
	order, _ := e.nw.TopoOrder()
	res := IncrementalResult{
		Incremental: true,
		ConeNodes:   len(cone.Members),
		CleanNodes:  len(order) - len(cone.Members),
		Totals: sim.Totals{
			Cycles:      e.st.Cycles,
			Transitions: e.st.GateTransitions,
			Useful:      e.st.GateTransitions,
		},
	}
	obs := obsv.Default()
	obs.Counter("power.prop.nodes").Add(int64(propagated))
	obs.Counter("flow.incr.cone_nodes").Add(int64(res.ConeNodes))
	obs.Counter("flow.incr.clean_nodes").Add(int64(res.CleanNodes))
	if len(order) > 0 {
		obs.Gauge("flow.incr.reuse_frac").Set(float64(res.CleanNodes) / float64(len(order)))
	}
	e.evaluate(&res)
	return res, nil
}

// evaluate fills the two reports from the (now current) baseline tables.
// Evaluate itself always runs over the full live network: capacitance
// loads depend on fanout shape, which a rewrite changes even for nodes
// whose activity it does not.
func (e *IncrementalEstimator) evaluate(res *IncrementalResult) {
	res.Propagated = Evaluate(e.nw, e.params, e.cm, e.probs.Activity)
	res.Packed = measured(e.nw, e.params, e.cm, e.vectors, e.st.Activity)
}

func sameIDs(a, b []logic.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
