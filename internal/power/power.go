// Package power implements the survey's central quantity, Eqn. 1:
//
//	P = 1/2 C Vdd^2 f N  +  Qsc Vdd f N  +  Ileak Vdd
//
// for gate-level networks. Estimate is the one entry point: its Spec picks
// the activity source — exact probabilistic (BDD signal probabilities),
// approximate probabilistic (independence-assumption propagation),
// transition densities, or measured (packed zero-delay or event-driven
// simulation via internal/sim) — over a simple capacitance model, and it
// produces the per-node and aggregate power reports used by every
// optimization experiment.
//
// Units: capacitance is measured in unit gate-input loads, voltage in
// volts, frequency in cycles per second. Reported power is in C·Vdd²·f
// units; only ratios between designs are meaningful, which is all the
// survey's claims require.
package power

import (
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/sim"
)

// Params holds the technology/environment parameters of Eqn. 1.
type Params struct {
	Vdd  float64 // supply voltage
	Freq float64 // clock frequency

	// QscFraction scales short-circuit charge per transition as a fraction
	// of the switched charge; for well-designed gates with controlled edge
	// rates this is small (the survey: switching power is >90% of total).
	QscFraction float64

	// LeakPerGate is the leakage current drawn by each gate, in units such
	// that LeakPerGate*Vdd is power in the same units as switching power.
	LeakPerGate float64
}

// DefaultParams returns 1995-era CMOS parameters: 5 V supply, unit
// frequency, 4% short-circuit fraction and a small leakage term. With
// these, switching activity power is a little over 90% of total on typical
// circuits, matching the survey's claim.
func DefaultParams() Params {
	return Params{Vdd: 5.0, Freq: 1.0, QscFraction: 0.04, LeakPerGate: 0.002}
}

// CapModel assigns an output load capacitance to each node.
type CapModel func(nw *logic.Network, n *logic.Node) float64

// UnitLoadCap is the default capacitance model: every gate input presents
// one unit of capacitance, every driven net adds one unit of wire and
// drain parasitics, and primary outputs drive one unit of external load.
func UnitLoadCap(nw *logic.Network, n *logic.Node) float64 {
	c := 1.0 // self (drain + local wire)
	c += float64(faninConnections(nw, n))
	if nw.IsPO(n.ID) {
		c += 1.0
	}
	return c
}

// faninConnections counts how many gate input pins node n drives.
func faninConnections(nw *logic.Network, n *logic.Node) int {
	total := 0
	for _, c := range n.Fanout() {
		cn := nw.Node(c)
		if cn == nil {
			continue
		}
		for _, f := range cn.Fanin {
			if f == n.ID {
				total++
			}
		}
	}
	return total
}

// BufferWeightedCap returns a capacitance model like UnitLoadCap except
// that Buf nodes — the minimum-size delay elements inserted by path
// balancing — present bufWeight units of capacitance instead of 1, both as
// the buffer's own output load and as the input-pin load it presents to
// its driver. The survey notes that balancing buffers "increase
// capacitance which may offset the reduction in switching activity";
// whether balancing wins depends on exactly this weight, so it is an
// explicit ablation parameter (1.0 reproduces UnitLoadCap).
func BufferWeightedCap(bufWeight float64) CapModel {
	return func(nw *logic.Network, n *logic.Node) float64 {
		c := 1.0
		if n.Type == logic.Buf {
			c = bufWeight
		}
		for _, cid := range n.Fanout() {
			cn := nw.Node(cid)
			if cn == nil {
				continue
			}
			pin := 1.0
			if cn.Type == logic.Buf {
				pin = bufWeight
			}
			for _, f := range cn.Fanin {
				if f == n.ID {
					c += pin
				}
			}
		}
		if nw.IsPO(n.ID) {
			c += 1.0
		}
		return c
	}
}

// NodePower is the power breakdown at one node.
type NodePower struct {
	Node      logic.NodeID
	Name      string
	Cap       float64 // load capacitance
	Activity  float64 // transitions per cycle (N in Eqn. 1)
	Switching float64
	ShortCkt  float64
	Leakage   float64
}

// Total returns the node's total power.
func (np NodePower) Total() float64 { return np.Switching + np.ShortCkt + np.Leakage }

// Report aggregates Eqn. 1 over a network.
type Report struct {
	Params    Params
	Switching float64
	ShortCkt  float64
	Leakage   float64
	Nodes     []NodePower

	// Degraded is true when the exact estimator exhausted its BDD budget
	// and the report's activities come from the Monte Carlo fallback
	// instead (see EstimateExactCtx). DegradeReason carries the budget
	// error that forced the downgrade.
	Degraded      bool
	DegradeReason string

	// Method, Samples and Totals are filled by Estimate: the activity
	// source, the number of vectors behind a sampled number (0 when
	// exact), and the simulation totals of the packed and simulated
	// methods (for the spurious fraction).
	Method  Method
	Samples int
	Totals  sim.Totals
	// Counts is the per-node transition record a simulated report was
	// evaluated from, glitches included (nil for every other method): the
	// profiler reads per-node glitch shares from it.
	Counts *sim.Counts
}

// Total returns total power.
func (r Report) Total() float64 { return r.Switching + r.ShortCkt + r.Leakage }

// SwitchingShare returns the fraction of total power due to switching
// activity (the survey: >90% for well-designed gates).
func (r Report) SwitchingShare() float64 {
	t := r.Total()
	if t == 0 {
		return 0
	}
	return r.Switching / t
}

func (r Report) String() string {
	s := fmt.Sprintf("P=%.4f (switching %.4f [%.1f%%], short-circuit %.4f, leakage %.4f)",
		r.Total(), r.Switching, 100*r.SwitchingShare(), r.ShortCkt, r.Leakage)
	if r.Degraded {
		s += " [degraded to Monte Carlo: " + r.DegradeReason + "]"
	}
	return s
}

// TopConsumers returns the k highest-power nodes, descending. It sorts
// indices, not node copies; sort.Slice's swaps depend only on the length
// and the comparisons, so ties come out in the same order either way.
func (r Report) TopConsumers(k int) []NodePower {
	idx := make([]int32, len(r.Nodes))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(i, j int) bool { return r.Nodes[idx[i]].Total() > r.Nodes[idx[j]].Total() })
	top := make([]NodePower, min(k, len(idx)))
	for i := range top {
		top[i] = r.Nodes[idx[i]]
	}
	return top
}

// Evaluate applies Eqn. 1 given a per-node activity function (transitions
// per cycle on the node's output net). Source nodes (PIs) are charged for
// the capacitance they drive too: their switching is externally supplied
// but dissipates in this circuit's wires.
func Evaluate(nw *logic.Network, p Params, cm CapModel, activity func(logic.NodeID) float64) Report {
	if cm == nil {
		cm = UnitLoadCap
	}
	live := nw.Live()
	rep := Report{Params: p, Nodes: make([]NodePower, 0, len(live))}
	for _, id := range live {
		n := nw.Node(id)
		c := cm(nw, n)
		a := activity(id)
		np := NodePower{Node: id, Name: n.Name, Cap: c, Activity: a}
		np.Switching = 0.5 * c * p.Vdd * p.Vdd * p.Freq * a
		np.ShortCkt = p.QscFraction * 0.5 * c * p.Vdd * p.Vdd * p.Freq * a
		if n.Type.IsGate() {
			np.Leakage = p.LeakPerGate * p.Vdd
		}
		rep.Switching += np.Switching
		rep.ShortCkt += np.ShortCkt
		rep.Leakage += np.Leakage
		rep.Nodes = append(rep.Nodes, np)
	}
	return rep
}
