package xsistor

import (
	"fmt"
	"math"

	"repro/internal/logic"
	"repro/internal/timing"
)

// Sizes maps each gate to its transistor width multiple (>= MinSize).
type Sizes map[logic.NodeID]float64

// SizingOptions configures the slack-driven downsizing pass.
type SizingOptions struct {
	// MinSize and MaxSize bound gate widths (defaults 1 and 8).
	MinSize, MaxSize float64
	// DelayTarget is the required critical delay. Negative means "the
	// delay achieved with all gates at MaxSize" (zero-slack start).
	DelayTarget float64
	// WireCap is added to every driven net.
	WireCap float64
}

// The downsizing pass shrinks a gate by sizeStep per move and makes at
// most maxSizingPasses improvement passes.
const (
	sizeStep        = 0.8
	maxSizingPasses = 20
)

// SizingResult reports the outcome.
type SizingResult struct {
	Sizes       Sizes
	Delay       float64 // achieved critical delay
	DelayTarget float64
	// SwitchedCap is Σ activity(n) · load(n): the Eqn. 1 switching power
	// in C·Vdd²·f/2 units.
	SwitchedCap float64
	Moves       int
}

// loadOf computes the capacitive load a node drives: the sized input pins
// of its consumers plus wire capacitance.
func loadOf(nw *logic.Network, sizes Sizes, wire float64, id logic.NodeID) float64 {
	n := nw.Node(id)
	load := wire
	for _, c := range n.Fanout() {
		cn := nw.Node(c)
		if cn == nil {
			continue
		}
		sz := 1.0
		if cn.Type.IsGate() {
			sz = sizes[c]
		}
		for _, f := range cn.Fanin {
			if f == id {
				load += sz
			}
		}
	}
	if nw.IsPO(id) {
		load += 1.0
	}
	return load
}

// delayFn builds the timing delay function: d(n) = 0.5 + load(n)/size(n)
// for gates. Bigger gates drive their load faster; bigger consumers load
// their drivers more — the coupling that makes sizing non-trivial.
func delayFn(nw *logic.Network, sizes Sizes, wire float64) timing.DelayFn {
	return func(id logic.NodeID) float64 {
		n := nw.Node(id)
		if n == nil || !n.Type.IsGate() {
			return 0
		}
		return 0.5 + loadOf(nw, sizes, wire, id)/sizes[id]
	}
}

// switchedCap computes Σ activity·load over all nodes.
func switchedCap(nw *logic.Network, sizes Sizes, wire float64, act func(logic.NodeID) float64) float64 {
	total := 0.0
	for _, id := range nw.Live() {
		total += act(id) * loadOf(nw, sizes, wire, id)
	}
	return total
}

// SizeForPower performs slack-driven transistor downsizing: start with
// every gate at MaxSize (fastest circuit), then repeatedly shrink the gate
// giving the best power reduction while the critical delay stays within
// target — the approach of [42] and [3]. act supplies per-node switching
// activity.
func SizeForPower(nw *logic.Network, act func(logic.NodeID) float64, opts SizingOptions) (SizingResult, error) {
	if opts.MinSize <= 0 {
		opts.MinSize = 1
	}
	if opts.MaxSize <= 0 {
		opts.MaxSize = 8
	}
	if opts.MaxSize < opts.MinSize {
		return SizingResult{}, fmt.Errorf("xsistor: MaxSize %v < MinSize %v", opts.MaxSize, opts.MinSize)
	}
	sizes := Sizes{}
	for _, id := range nw.Gates() {
		sizes[id] = opts.MaxSize
	}
	an, err := timing.Analyze(nw, delayFn(nw, sizes, opts.WireCap), -1)
	if err != nil {
		return SizingResult{}, err
	}
	target := opts.DelayTarget
	if target < 0 {
		target = an.Critical
	}
	if an.Critical > target+1e-9 {
		return SizingResult{}, fmt.Errorf("xsistor: delay target %.3f infeasible (max-size delay %.3f)", target, an.Critical)
	}

	res := SizingResult{Sizes: sizes, DelayTarget: target}
	for pass := 0; pass < maxSizingPasses; pass++ {
		improved := false
		// Visit gates in decreasing slack order.
		an, err = timing.Analyze(nw, delayFn(nw, sizes, opts.WireCap), target)
		if err != nil {
			return res, err
		}
		gates := nw.Gates()
		sortBySlackDesc(gates, an)
		for _, id := range gates {
			if sizes[id] <= opts.MinSize+1e-12 {
				continue
			}
			old := sizes[id]
			next := old * sizeStep
			if next < opts.MinSize {
				next = opts.MinSize
			}
			sizes[id] = next
			trial, err := timing.Analyze(nw, delayFn(nw, sizes, opts.WireCap), target)
			if err != nil {
				return res, err
			}
			if trial.Critical > target+1e-9 {
				sizes[id] = old // revert: would violate the constraint
				continue
			}
			improved = true
			res.Moves++
		}
		if !improved {
			break
		}
	}
	an, err = timing.Analyze(nw, delayFn(nw, sizes, opts.WireCap), target)
	if err != nil {
		return res, err
	}
	res.Delay = an.Critical
	res.SwitchedCap = switchedCap(nw, sizes, opts.WireCap, act)
	return res, nil
}

// UniformPower evaluates the switched capacitance and delay with all gates
// at a uniform size — the unsized baseline for E3.
func UniformPower(nw *logic.Network, act func(logic.NodeID) float64, size, wire float64) (switched, delay float64, err error) {
	sizes := Sizes{}
	for _, id := range nw.Gates() {
		sizes[id] = size
	}
	an, err := timing.Analyze(nw, delayFn(nw, sizes, wire), -1)
	if err != nil {
		return 0, 0, err
	}
	return switchedCap(nw, sizes, wire, act), an.Critical, nil
}

func sortBySlackDesc(ids []logic.NodeID, an *timing.Analysis) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && slackOf(an, ids[j]) > slackOf(an, ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func slackOf(an *timing.Analysis, id logic.NodeID) float64 {
	if int(id) < len(an.Slack) {
		return an.Slack[id]
	}
	return math.Inf(-1)
}
