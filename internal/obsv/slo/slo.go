// Package slo turns rolling-window telemetry into service-level
// verdicts: declare an Objective (an allowed bad-event fraction — the
// error budget), track good/bad events against multiple rolling
// horizons (internal/obsv/window), and evaluate burn rates into
// ok / warn / breach states.
//
// The burn rate of a horizon is its observed bad fraction divided by
// the budget: burn 1.0 means the service is consuming its budget
// exactly as fast as the objective allows, burn 10 means a full
// budget period burns in a tenth of the time. Evaluation follows the
// multi-window discipline: a state only escalates when EVERY horizon
// burns past the threshold — the short horizon proves the problem is
// happening now, the long horizon proves it is sustained — and
// recovers as soon as the short horizon drains. That keeps single
// stray errors from paging and keeps verdicts from flapping.
//
// Everything is deterministic under an injected window.Clock, and
// Verdict marshals to stable JSON (slices, not maps), so SLO output
// can be asserted byte-for-byte in tests.
package slo

import (
	"time"

	"repro/internal/obsv/window"
)

// State is an objective's health.
type State int

const (
	// OK: every horizon burns below the warn threshold.
	OK State = iota
	// Warn: every horizon burns at or past warnBurn.
	Warn
	// Breach: every horizon burns at or past breachBurn.
	Breach
)

// warnBurn and breachBurn are the burn-rate thresholds: warn when the
// budget is being consumed at its sustained limit, breach when it burns
// an order of magnitude faster. minEvents is the fewest in-window
// events a horizon needs before its burn counts; emptier horizons read
// burn 0, so a fresh process is ok, not breached.
const (
	warnBurn   = 1
	breachBurn = 10
	minEvents  = 1
)

// String renders the state as its JSON form: "ok", "warn", "breach".
func (s State) String() string {
	switch s {
	case Warn:
		return "warn"
	case Breach:
		return "breach"
	default:
		return "ok"
	}
}

// Objective declares one service-level objective as an error budget.
type Objective struct {
	// Name labels the objective in verdicts ("availability",
	// "latency", "degraded").
	Name string
	// Budget is the allowed bad-event fraction, e.g. 0.001 for 99.9%
	// availability. Must be > 0.
	Budget float64
}

// Horizon is one rolling evaluation window.
type Horizon struct {
	// Label names the horizon in verdicts ("5m", "1h").
	Label string
	// Span is the window length.
	Span time.Duration
	// Buckets is the ring resolution (minimum 2).
	Buckets int
}

// trackedHorizon pairs a horizon with its rolling tallies.
type trackedHorizon struct {
	label string
	total *window.Counter
	bad   *window.Counter
}

// Tracker accumulates good/bad events for one objective across its
// horizons. All methods are safe for concurrent use.
type Tracker struct {
	obj Objective
	hs  []trackedHorizon
}

// NewTracker builds a tracker for obj over the given horizons using
// clock (nil means window.Monotonic).
func NewTracker(obj Objective, clock window.Clock, horizons []Horizon) *Tracker {
	t := &Tracker{obj: obj}
	for _, h := range horizons {
		t.hs = append(t.hs, trackedHorizon{
			label: h.Label,
			total: window.NewCounter(h.Span, h.Buckets, clock),
			bad:   window.NewCounter(h.Span, h.Buckets, clock),
		})
	}
	return t
}

// Observe records one event, bad or good, into every horizon.
func (t *Tracker) Observe(bad bool) {
	for i := range t.hs {
		t.hs[i].total.Inc()
		if bad {
			t.hs[i].bad.Inc()
		}
	}
}

// BurnPoint is one horizon's contribution to a verdict.
type BurnPoint struct {
	Horizon     string  `json:"horizon"`
	Events      int64   `json:"events"`
	Bad         int64   `json:"bad"`
	BadFraction float64 `json:"bad_fraction"`
	Burn        float64 `json:"burn"`
}

// Verdict is the evaluated state of one objective.
type Verdict struct {
	Objective string      `json:"objective"`
	Budget    float64     `json:"budget"`
	State     string      `json:"state"`
	Burn      []BurnPoint `json:"burn"`
}

// Evaluate computes the burn rate of every horizon and folds them
// into a state.
func (t *Tracker) Evaluate() Verdict {
	v := Verdict{Objective: t.obj.Name, Budget: t.obj.Budget, Burn: make([]BurnPoint, 0, len(t.hs))}
	minBurn := -1.0
	for i := range t.hs {
		h := &t.hs[i]
		pt := BurnPoint{Horizon: h.label, Events: h.total.Total(), Bad: h.bad.Total()}
		if pt.Events >= minEvents {
			pt.BadFraction = float64(pt.Bad) / float64(pt.Events)
			if t.obj.Budget > 0 {
				pt.Burn = pt.BadFraction / t.obj.Budget
			}
		}
		if minBurn < 0 || pt.Burn < minBurn {
			minBurn = pt.Burn
		}
		v.Burn = append(v.Burn, pt)
	}
	state := OK
	switch {
	case minBurn >= breachBurn:
		state = Breach
	case minBurn >= warnBurn:
		state = Warn
	}
	v.State = state.String()
	return v
}
