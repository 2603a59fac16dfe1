// Package archpower implements architecture-level power estimation (survey
// §IV.A): instead of simulating gates, a datapath module (adder,
// multiplier, comparator...) is characterized once, bottom-up, and a fast
// model predicts its power from how often it is activated and what its
// input statistics look like. Three model families from the survey are
// provided, in increasing fidelity:
//
//   - GateCount   — Svensson/Liu [41]: power from gate count alone, with a
//     single technology constant.
//   - Fixed       — PFA, Powell et al. [15] / Sato et al. [36]: a constant
//     "capacitance switched per activation", characterized with random
//     vectors, ignoring signal statistics and inter-module correlation.
//   - Activity    — Landman/Rabaey [21,22]: switched capacitance as a
//     linear function of the module's input transition activity,
//     characterized at several activity points.
//
// The reference ("truth") is full gate-level event-driven simulation of
// the module netlist under the actual workload.
package archpower

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sim"
)

// Characterization holds the per-module model parameters obtained from
// bottom-up calibration.
type Characterization struct {
	Name      string
	GateCount int
	// FixedCap is the mean switched capacitance per active cycle under
	// uniform random inputs (the PFA number).
	FixedCap float64
	// ActPoints are (toggleRate, switchedCap) calibration samples; the
	// activity model interpolates piecewise-linearly between them
	// (glitching makes the relation visibly nonlinear, so a multi-point
	// table beats a straight line).
	ActPoints [][2]float64
}

// TrueSwitchedCap measures the module's real switched capacitance per
// cycle by event-driven unit-delay simulation of the netlist over the
// given stimulus, using the UnitLoadCap capacitance model (glitches
// included — architecture models must absorb them into their constants).
func TrueSwitchedCap(nw *logic.Network, st sim.Stimulus) (float64, error) {
	if st.Len() == 0 {
		return 0, fmt.Errorf("archpower: empty workload")
	}
	s, err := sim.New(nw)
	if err != nil {
		return 0, err
	}
	if _, err := s.Run(st); err != nil {
		return 0, err
	}
	total := 0.0
	for _, id := range nw.Live() {
		c := power.UnitLoadCap(nw, nw.Node(id))
		total += c * s.Activity(id)
	}
	// Add primary-input wire switching from the vector stream itself.
	for i, tr := range inputToggles(st) {
		c := power.UnitLoadCap(nw, nw.Node(nw.PIs()[i]))
		total += c * float64(tr) / float64(st.Len())
	}
	return total, nil
}

// inputToggles counts each input's transitions from cycle 1 on: the
// stream's toggles less vector 0's ones, which Toggles counts against the
// all-zero reset. st must not be empty.
func inputToggles(st sim.Stimulus) []int {
	t := st.Toggles()
	v0 := make([]bool, st.Width())
	st.Load(0, v0)
	for j, b := range v0 {
		t[j] -= logic.Bit(b)
	}
	return t
}

// Characterize calibrates all three models for a module netlist: the
// fixed model from uniform random vectors, and the activity model as a
// piecewise-linear table over calibration streams spanning toggle rates
// 0.1..0.9.
func Characterize(name string, nw *logic.Network, r *rand.Rand, cycles int) (Characterization, error) {
	ch := Characterization{Name: name, GateCount: nw.NumGates()}
	w := len(nw.PIs())
	mk := func(p float64) sim.Stimulus {
		// Bit flips with probability p each cycle (controls toggle rate
		// directly, holding value distribution near uniform).
		cur := make([]bool, w)
		for i := range cur {
			cur[i] = r.Intn(2) == 1
		}
		return sim.DrawStimulus(cycles, w, func(_, j int) bool {
			if r.Float64() < p {
				cur[j] = !cur[j]
			}
			return cur[j]
		})
	}
	uniform := mk(0.5)
	var err error
	ch.FixedCap, err = TrueSwitchedCap(nw, uniform)
	if err != nil {
		return ch, err
	}
	ch.ActPoints = append(ch.ActPoints, [2]float64{0, 0})
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		st, capAt := uniform, ch.FixedCap
		if p != 0.5 {
			st = mk(p)
			if capAt, err = TrueSwitchedCap(nw, st); err != nil {
				return ch, err
			}
		}
		ch.ActPoints = append(ch.ActPoints, [2]float64{AnalyzeWorkload(st, 1).ToggleRate, capAt})
	}
	sort.Slice(ch.ActPoints, func(i, j int) bool { return ch.ActPoints[i][0] < ch.ActPoints[j][0] })
	return ch, nil
}

// PredictFixed returns the PFA estimate: FixedCap on active cycles.
func (ch Characterization) PredictFixed(activeFraction float64) float64 {
	return ch.FixedCap * activeFraction
}

// PredictActivity returns the Landman/Rabaey-style estimate given the
// workload's measured input toggle rate, by piecewise-linear
// interpolation over the calibration table.
func (ch Characterization) PredictActivity(activeFraction, toggleRate float64) float64 {
	pts := ch.ActPoints
	if len(pts) == 0 {
		return ch.FixedCap * activeFraction
	}
	v := 0.0
	switch {
	case toggleRate <= pts[0][0]:
		v = pts[0][1]
	case toggleRate >= pts[len(pts)-1][0]:
		v = pts[len(pts)-1][1]
	default:
		for i := 1; i < len(pts); i++ {
			if toggleRate <= pts[i][0] {
				a, b := pts[i-1], pts[i]
				frac := (toggleRate - a[0]) / (b[0] - a[0])
				v = a[1] + frac*(b[1]-a[1])
				break
			}
		}
	}
	if v < 0 {
		v = 0
	}
	return v * activeFraction
}

// GateCountModel predicts switched capacitance from gate count alone:
// capPerGate is the single technology constant, calibrated on a reference
// module (which is exactly why the model travels poorly between module
// types [41]).
func GateCountModel(gateCount int, capPerGate float64) float64 {
	return float64(gateCount) * capPerGate
}

// CalibrateGateCount derives the technology constant from one reference
// characterization.
func CalibrateGateCount(ref Characterization) float64 {
	if ref.GateCount == 0 {
		return 0
	}
	return ref.FixedCap / float64(ref.GateCount)
}

// WorkloadStats summarizes a stream for the models.
type WorkloadStats struct {
	ToggleRate     float64
	ActiveFraction float64
}

// AnalyzeWorkload extracts model inputs from a vector stream: its mean
// per-bit toggle probability, and the given active fraction.
func AnalyzeWorkload(st sim.Stimulus, activeFraction float64) WorkloadStats {
	ws := WorkloadStats{ActiveFraction: activeFraction}
	if st.Len() >= 2 {
		tr := 0
		for _, k := range inputToggles(st) {
			tr += k
		}
		ws.ToggleRate = float64(tr) / float64((st.Len()-1)*st.Width())
	}
	return ws
}

// ModelErrors compares all three predictions against the gate-level truth
// for a module under a workload; the returned map is model name → signed
// relative error.
func ModelErrors(ch Characterization, capPerGate float64, truth float64, ws WorkloadStats) map[string]float64 {
	rel := func(pred float64) float64 {
		if truth == 0 {
			return 0
		}
		return (pred - truth) / truth
	}
	return map[string]float64{
		"gatecount": rel(GateCountModel(ch.GateCount, capPerGate) * ws.ActiveFraction),
		"fixed":     rel(ch.PredictFixed(ws.ActiveFraction)),
		"activity":  rel(ch.PredictActivity(ws.ActiveFraction, ws.ToggleRate)),
	}
}
