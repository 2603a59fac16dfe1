// Package profile is the toolkit's power-attribution profiler. Every
// technique in the survey acts on the product switching activity ×
// capacitance (Eqn. 1); this package answers *where* that product is spent.
// It attributes per-node switched capacitance — estimated (Najm transition
// densities, power.TransitionDensities) and measured (event-driven
// simulation, glitches included) side by side — and aggregates it along the
// node → module → circuit hierarchy encoded in dot-separated gate names by
// the internal/circuits generators ("fa3.s" belongs to module "fa3").
//
// Three standard export formats make the attribution actionable with
// off-the-shelf tooling:
//
//   - pprof profile.proto (gzipped, pprof.go): `go tool pprof -top
//     power.pb.gz` ranks circuit nodes by switched capacitance exactly like
//     it ranks functions by CPU time.
//   - folded stacks (folded.go): one `circuit;module;node value` line per
//     node, the input format of flamegraph.pl / speedscope / inferno.
//   - Chrome trace_event JSON (trace.go): FromTracer turns the span tree
//     of a run (an internal/obsv/trace Tracer: flow passes with their
//     power/area deltas and the engine spans under them, experiment
//     tables, server requests) into events viewable in chrome://tracing
//     or Perfetto.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sim"
)

// Entry is the attribution record of one node: its load capacitance and its
// activity under the two estimators, from which the switched-capacitance
// and power attributions follow.
type Entry struct {
	Node   logic.NodeID
	Name   string
	Module string // dotted module prefix of Name; "" = directly under the circuit

	Cap float64 // load capacitance (units of CapModel)

	// SimActivity is measured transitions per cycle from event-driven
	// simulation (glitch-inclusive); EstActivity is the propagated
	// transition-density estimate for the same net.
	SimActivity float64
	EstActivity float64

	// SimGlitch is the spurious share of SimActivity in [0,1], read from
	// the simulated report's counts; 0 without them.
	SimGlitch float64

	// SimPower and EstPower are the node's Eqn. 1 power under each activity
	// source (switching + short-circuit + leakage).
	SimPower float64
	EstPower float64
}

// SimSwitchedCap is the measured activity × capacitance product per cycle —
// the quantity every optimization in the survey attacks.
func (e Entry) SimSwitchedCap() float64 { return e.Cap * e.SimActivity }

// EstSwitchedCap is the estimated activity × capacitance product per cycle.
func (e Entry) EstSwitchedCap() float64 { return e.Cap * e.EstActivity }

// Profile is a full per-node attribution of one circuit.
type Profile struct {
	Circuit string
	Entries []Entry

	// SimTotal and EstTotal are the circuit totals of the two source
	// reports; module subtotals partition SimTotal exactly.
	SimTotal float64
	EstTotal float64

	// Cycles is the number of simulated cycles behind SimActivity (0 when
	// unknown).
	Cycles int
}

// Module returns the hierarchical module prefix of a node name: everything
// before the last '.', or "" for flat names. Multi-level names nest
// ("a.b.c" → module "a.b" inside "a").
func Module(name string) string {
	if i := strings.LastIndex(name, "."); i > 0 {
		return name[:i]
	}
	return ""
}

// modulePath expands a module prefix into its hierarchy chain, outermost
// first: "a.b" → ["a", "a.b"]; "" → nil.
func modulePath(module string) []string {
	if module == "" {
		return nil
	}
	var path []string
	for i := 0; i < len(module); i++ {
		if module[i] == '.' {
			path = append(path, module[:i])
		}
	}
	return append(path, module)
}

// FromReports builds a profile from a simulated (glitch-inclusive) and an
// estimated power report of the same network. The entries mirror
// simRep.Nodes one-to-one, so the profile's totals equal the reports'
// totals exactly — no re-simulation, no drift. estRep may be a zero Report
// when no estimate is available. Per-node glitch shares and the cycle
// count come from simRep.Counts, when the report carries them.
func FromReports(circuit string, simRep, estRep power.Report) *Profile {
	est := make(map[logic.NodeID]power.NodePower, len(estRep.Nodes))
	for _, np := range estRep.Nodes {
		est[np.Node] = np
	}
	p := &Profile{
		Circuit:  circuit,
		SimTotal: simRep.Total(),
		EstTotal: estRep.Total(),
	}
	counts := simRep.Counts
	if counts != nil {
		p.Cycles = counts.Cycles()
	}
	for _, np := range simRep.Nodes {
		e := Entry{
			Node:        np.Node,
			Name:        np.Name,
			Module:      Module(np.Name),
			Cap:         np.Cap,
			SimActivity: np.Activity,
			SimPower:    np.Total(),
		}
		if en, ok := est[np.Node]; ok {
			e.EstActivity = en.Activity
			e.EstPower = en.Total()
		}
		if counts != nil {
			e.SimGlitch = glitchShare(counts, np.Node)
		}
		p.Entries = append(p.Entries, e)
	}
	return p
}

// glitchShare is the spurious fraction of a node's transitions, in [0,1]
// (0 for a node that never toggled).
func glitchShare(c *sim.Counts, id logic.NodeID) float64 {
	n := c.Transitions(id)
	if n == 0 {
		return 0
	}
	return float64(n-c.UsefulTransitions(id)) / float64(n)
}

// Top returns the n hottest entries by measured switched capacitance,
// descending (ties broken by name for determinism).
func (p *Profile) Top(n int) []Entry {
	es := append([]Entry(nil), p.Entries...)
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i].SimSwitchedCap(), es[j].SimSwitchedCap()
		if a != b {
			return a > b
		}
		return es[i].Name < es[j].Name
	})
	if n > len(es) {
		n = len(es)
	}
	return es[:n]
}

// ModuleTotal is the aggregate attribution of one module instance.
type ModuleTotal struct {
	Module                         string // "" = nodes directly under the circuit
	Nodes                          int
	SimPower, EstPower             float64
	SimSwitchedCap, EstSwitchedCap float64
}

// ModuleTotals aggregates entries by their immediate module. Every node
// contributes to exactly one bucket, so the SimPower subtotals sum to
// SimTotal exactly. Sorted by SimPower descending (ties by module name).
func (p *Profile) ModuleTotals() []ModuleTotal {
	agg := make(map[string]*ModuleTotal)
	for _, e := range p.Entries {
		mt, ok := agg[e.Module]
		if !ok {
			mt = &ModuleTotal{Module: e.Module}
			agg[e.Module] = mt
		}
		mt.Nodes++
		mt.SimPower += e.SimPower
		mt.EstPower += e.EstPower
		mt.SimSwitchedCap += e.SimSwitchedCap()
		mt.EstSwitchedCap += e.EstSwitchedCap()
	}
	out := make([]ModuleTotal, 0, len(agg))
	for _, mt := range agg {
		out = append(out, *mt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SimPower != out[j].SimPower {
			return out[i].SimPower > out[j].SimPower
		}
		return out[i].Module < out[j].Module
	})
	return out
}

// FormatTop renders the top-n hottest nodes as an aligned text table with
// estimated and simulated attribution side by side — a node whose sim.act
// far exceeds est.act (high glitch%) is a glitch hotspot the zero-delay
// estimators cannot see.
func (p *Profile) FormatTop(n int) string {
	top := p.Top(n)
	var b strings.Builder
	fmt.Fprintf(&b, "hottest nodes (top %d of %d by simulated switched capacitance):\n", len(top), len(p.Entries))
	fmt.Fprintf(&b, "  %-22s %-12s %7s %8s %8s %8s %9s %9s\n",
		"node", "module", "cap", "est.act", "sim.act", "glitch%", "estP", "simP")
	for _, e := range top {
		mod := e.Module
		if mod == "" {
			mod = "-"
		}
		fmt.Fprintf(&b, "  %-22s %-12s %7.2f %8.3f %8.3f %8.1f %9.3f %9.3f\n",
			e.Name, mod, e.Cap, e.EstActivity, e.SimActivity, 100*e.SimGlitch, e.EstPower, e.SimPower)
	}
	mts := p.ModuleTotals()
	lim := n
	if lim > len(mts) {
		lim = len(mts)
	}
	fmt.Fprintf(&b, "module subtotals (top %d of %d, simP sums to %.4f):\n", lim, len(mts), p.SimTotal)
	fmt.Fprintf(&b, "  %-22s %6s %10s %10s %10s\n", "module", "nodes", "sim.capsw", "estP", "simP")
	for _, mt := range mts[:lim] {
		mod := mt.Module
		if mod == "" {
			mod = "(top)"
		}
		fmt.Fprintf(&b, "  %-22s %6d %10.3f %10.3f %10.3f\n",
			mod, mt.Nodes, mt.SimSwitchedCap, mt.EstPower, mt.SimPower)
	}
	return b.String()
}
