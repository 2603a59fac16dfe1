package sim

import (
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/obsv"
)

// The sim.events counter must agree exactly with the per-cycle statistics:
// its growth over a run equals the sum of CycleStats.Transitions.
func TestMetricsCounterAccuracy(t *testing.T) {
	reg := obsv.Enable()
	t.Cleanup(obsv.Disable)

	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	events := reg.Counter("sim.events")
	spurious := reg.Counter("sim.spurious")
	cycles := reg.Counter("sim.cycles")
	before, beforeSp, beforeCy := events.Value(), spurious.Value(), cycles.Value()

	r := rand.New(rand.NewSource(42))
	var sumTr, sumSp int64
	const n = 50
	for c := 0; c < n; c++ {
		in := make([]bool, len(nw.PIs()))
		for i := range in {
			in[i] = r.Intn(2) == 1
		}
		cs, err := s.Cycle(in)
		if err != nil {
			t.Fatal(err)
		}
		sumTr += int64(cs.Transitions)
		sumSp += int64(cs.Spurious)
	}

	if got := events.Value() - before; got != sumTr {
		t.Errorf("sim.events grew by %d, want %d (sum of CycleStats.Transitions)", got, sumTr)
	}
	if got := spurious.Value() - beforeSp; got != sumSp {
		t.Errorf("sim.spurious grew by %d, want %d", got, sumSp)
	}
	if got := cycles.Value() - beforeCy; got != n {
		t.Errorf("sim.cycles grew by %d, want %d", got, n)
	}
	if hwm := reg.Gauge("sim.queue.hwm").Value(); hwm <= 0 {
		t.Errorf("sim.queue.hwm = %g, want > 0", hwm)
	}
	if reg.Histogram("sim.settle").Count() < n {
		t.Errorf("sim.settle observed %d cycles, want >= %d", reg.Histogram("sim.settle").Count(), n)
	}
}

// A simulator built while observability is disabled must keep working and
// record nothing once a registry is enabled afterwards (handles are
// captured at construction).
func TestMetricsDisabledSimulator(t *testing.T) {
	obsv.Disable()
	nw, err := circuits.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(nw)
	if err != nil {
		t.Fatal(err)
	}
	reg := obsv.Enable()
	t.Cleanup(obsv.Disable)
	before := reg.Counter("sim.events").Value()
	in := make([]bool, len(nw.PIs()))
	in[0] = true
	if _, err := s.Cycle(in); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sim.events").Value(); got != before {
		t.Errorf("disabled-at-construction simulator recorded %d events", got-before)
	}
}
