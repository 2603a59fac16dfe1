package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 60, parent: 0},    // overlaps a: 10-60 covered once
		{name: "c", start: 90, end: 120, parent: 0},   // sticks out of root: 90-100 counts
		{name: "a1", start: 15, end: 20, parent: 1},   // grandchild: only a loses it
		{name: "d", start: 70, end: 80, parent: 0},    // disjoint
		{name: "e", start: 72, end: 75, parent: 0},    // inside d
		{name: "other", start: 0, end: 5, parent: -1}, // another root
	}
	want := []int64{100 - 50 - 10 - 10, 30 - 5, 30, 30, 5, 10, 3, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

// A delay injected inside one layer's span must show up as that layer's
// self time and nowhere else.
func TestDelayIsAttributedToItsLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a server")
	}
	// Small simulated estimates: every layer but the delayed one takes
	// well under a millisecond, so host noise cannot hide where the delay
	// went.
	w := &workload{name: "small-simulated", replays: 12, round: func(g *gen, r int) []op {
		var ops []op
		for _, c := range []string{"dec5", "alu4", "mult4"} {
			q := g.estimate("narrow", "simulated")
			q.Circuit, q.Vectors = c, 256
			ops = append(ops, single(q))
		}
		return ops
	}}
	const delay = 5 * time.Millisecond

	// run replays the same requests on a fresh server and returns each
	// layer's summed self time (ms), the report, and the sim.event spans'
	// self times.
	run := func(inject bool) (map[string]float64, map[string]float64, []float64) {
		in, err := startInstance() // idle and fresh: every request a miss
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		tr := newTracer()
		if inject {
			tr.delay = map[string]time.Duration{"sim.event": delay}
		}
		st := replay(w, 7, in, time.Minute, goldenTables(), tr)
		if st.failed > 0 {
			t.Fatalf("replay failed %d requests", st.failed)
		}
		sums := map[string]float64{}
		var sim []float64
		for i, self := range selfTimes(tr.spans) {
			ms := float64(self) / 1e6
			sums[tr.spans[i].name] += ms
			if tr.spans[i].name == "sim.event" {
				sim = append(sim, ms)
			}
		}
		m, _ := layerReport(tr, st.reqs)
		return sums, m, sim
	}
	run(false) // warm the process up
	base, _, _ := run(false)
	delayed, report, sim := run(true)
	if len(sim) == 0 {
		t.Fatal("the replay ran no simulated estimate")
	}
	want := float64(len(sim)) * delay.Seconds() * 1e3
	for _, ms := range sim {
		if ms < delay.Seconds()*1e3 {
			t.Errorf("a delayed sim.event span has %.3f ms of self time", ms)
		}
	}
	if report["sim.event_ms"] < delay.Seconds()*1e3 {
		t.Errorf("sim.event_ms = %.3f, below the injected %v", report["sim.event_ms"], delay)
	}
	for l := range delayed {
		if l == "sim.event" || l == "server.hit" {
			continue
		}
		if grew := delayed[l] - base[l]; grew > 0.2*want {
			t.Errorf("%s self time grew by %.1f ms; the %.1f ms of delay belong to sim.event", l, grew, want)
		}
	}
}
