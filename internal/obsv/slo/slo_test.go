package slo

import (
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manually stepped monotonic clock.
type fakeClock struct{ now atomic.Int64 }

func (f *fakeClock) Now() int64              { return f.now.Load() }
func (f *fakeClock) Advance(d time.Duration) { f.now.Add(int64(d)) }

// testHorizons is a fast/slow pair scaled down so tests step through
// full windows without huge loops: 10s at 1s resolution, 60s at 5s.
func testHorizons() []Horizon {
	return []Horizon{
		{Label: "10s", Span: 10 * time.Second, Buckets: 10},
		{Label: "1m", Span: time.Minute, Buckets: 12},
	}
}

func TestStateString(t *testing.T) {
	if OK.String() != "ok" || Warn.String() != "warn" || Breach.String() != "breach" {
		t.Fatal("State strings wrong")
	}
}

// TestVerdictFlipsOnErrorBurst injects a synthetic availability burst:
// healthy traffic evaluates ok, a sustained error burst breaches every
// horizon, and draining the windows recovers to ok.
func TestVerdictFlipsOnErrorBurst(t *testing.T) {
	fc := &fakeClock{}
	tr := NewTracker(Objective{Name: "availability", Budget: 0.001}, fc.Now, testHorizons())

	// Healthy traffic across both windows.
	for i := 0; i < 60; i++ {
		tr.Observe(false)
		fc.Advance(time.Second)
	}
	v := tr.Evaluate()
	if v.State != "ok" {
		t.Fatalf("healthy traffic state = %q, want ok: %+v", v.State, v)
	}
	if len(v.Burn) != 2 || v.Burn[0].Horizon != "10s" || v.Burn[1].Horizon != "1m" {
		t.Fatalf("burn points wrong: %+v", v.Burn)
	}
	if v.Burn[0].Burn != 0 || v.Burn[1].Burn != 0 {
		t.Fatalf("healthy burn nonzero: %+v", v.Burn)
	}

	// Error burst: 100% failures for 30s. Both horizons' bad fraction
	// rockets past 10x budget -> breach.
	for i := 0; i < 30; i++ {
		tr.Observe(true)
		fc.Advance(time.Second)
	}
	v = tr.Evaluate()
	if v.State != "breach" {
		t.Fatalf("burst state = %q, want breach: %+v", v.State, v)
	}
	if v.Burn[0].BadFraction != 1.0 {
		t.Fatalf("short-horizon bad fraction = %g, want 1.0", v.Burn[0].BadFraction)
	}

	// Recovery: healthy traffic again. As soon as the short horizon
	// drains (10s of good traffic), the multi-window rule de-escalates
	// even though the long horizon still remembers the burst.
	for i := 0; i < 11; i++ {
		tr.Observe(false)
		fc.Advance(time.Second)
	}
	v = tr.Evaluate()
	if v.State != "ok" {
		t.Fatalf("post-recovery state = %q, want ok: %+v", v.State, v)
	}
	if v.Burn[1].Bad == 0 {
		t.Fatal("long horizon should still remember the burst")
	}
}

// TestVerdictFlipsOnLatencyBurst drives the latency-threshold shape:
// "bad" = slower than the objective's threshold, here synthesized by
// the caller. A partial burst lands in warn, not breach.
func TestVerdictFlipsOnLatencyBurst(t *testing.T) {
	fc := &fakeClock{}
	tr := NewTracker(Objective{Name: "latency", Budget: 0.05}, fc.Now, testHorizons())

	// 20% of requests slow: burn lands between 1x and 10x budget on
	// every horizon -> warn, not breach.
	for i := 0; i < 60; i++ {
		tr.Observe(i%5 == 0)
		fc.Advance(time.Second)
	}
	v := tr.Evaluate()
	if v.State != "warn" {
		t.Fatalf("10%% slow state = %q, want warn: %+v", v.State, v)
	}

	// Full burst: everything slow. Burn = 20 -> breach.
	for i := 0; i < 60; i++ {
		tr.Observe(true)
		fc.Advance(time.Second)
	}
	if got := tr.Evaluate().State; got != "breach" {
		t.Fatalf("full burst state = %q, want breach", got)
	}

	// Idle windows fully drain -> ok (no events, burn 0).
	fc.Advance(2 * time.Minute)
	if got := tr.Evaluate().State; got != "ok" {
		t.Fatalf("drained state = %q, want ok", got)
	}
}

// TestShortBlipDoesNotBreach is the point of multi-window evaluation:
// a blip that saturates the short horizon but barely moves the long
// one must not escalate to breach.
func TestShortBlipDoesNotBreach(t *testing.T) {
	fc := &fakeClock{}
	tr := NewTracker(Objective{Name: "availability", Budget: 0.1}, fc.Now, testHorizons())

	// 55s of healthy traffic, then 3 seconds of errors.
	for i := 0; i < 55; i++ {
		tr.Observe(false)
		fc.Advance(time.Second)
	}
	for i := 0; i < 3; i++ {
		tr.Observe(true)
		fc.Advance(time.Second)
	}
	v := tr.Evaluate()
	// Short horizon: 3/10 bad -> burn 3. Long horizon: 3/58 -> burn
	// ~0.52. min burn < 1 -> ok.
	if v.State != "ok" {
		t.Fatalf("short blip state = %q, want ok: %+v", v.State, v)
	}
	if v.Burn[0].Burn < 1 {
		t.Fatalf("short horizon should be hot: %+v", v.Burn[0])
	}
}

// TestMinEventsSuppressesEmptyHorizons: a horizon with no in-window
// events abstains with burn 0, so it holds the multi-window verdict at
// ok however hot the other horizon burns.
func TestMinEventsSuppressesEmptyHorizons(t *testing.T) {
	fc := &fakeClock{}
	tr := NewTracker(Objective{Name: "availability", Budget: 0.001}, fc.Now, []Horizon{
		{Label: "10s", Span: 10 * time.Second, Buckets: 10},
		{Label: "1s", Span: time.Second, Buckets: 2},
	})
	// An error burst, then 2s of silence: the short horizon empties.
	for i := 0; i < 5; i++ {
		tr.Observe(true)
	}
	fc.Advance(2 * time.Second)
	v := tr.Evaluate()
	if v.State != "ok" || v.Burn[1].Events != 0 || v.Burn[1].Burn != 0 {
		t.Fatalf("empty short horizon: %+v, want ok/zero burn", v)
	}
	if v.Burn[0].Burn < breachBurn {
		t.Fatalf("long horizon burn = %g, want past the breach threshold", v.Burn[0].Burn)
	}
	// One error lands in the short horizon too: both burn, breach.
	tr.Observe(true)
	if got := tr.Evaluate().State; got != "breach" {
		t.Fatalf("both horizons burning: state %q, want breach", got)
	}
}

// TestVerdictJSONStable pins the JSON shape lptop and CI grep against.
func TestVerdictJSONStable(t *testing.T) {
	fc := &fakeClock{}
	tr := NewTracker(Objective{Name: "availability", Budget: 0.001}, fc.Now, testHorizons())
	for i := 0; i < 4; i++ {
		tr.Observe(false)
	}
	b1, err := json.Marshal(tr.Evaluate())
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(tr.Evaluate())
	if string(b1) != string(b2) {
		t.Fatalf("verdict JSON not stable:\n%s\n%s", b1, b2)
	}
	want := `{"objective":"availability","budget":0.001,"state":"ok","burn":[{"horizon":"10s","events":4,"bad":0,"bad_fraction":0,"burn":0},{"horizon":"1m","events":4,"bad":0,"bad_fraction":0,"burn":0}]}`
	if string(b1) != want {
		t.Fatalf("verdict JSON = %s\nwant %s", b1, want)
	}
}
