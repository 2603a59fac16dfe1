package archpower

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/sim"
)

func TestTrueSwitchedCapBasics(t *testing.T) {
	nw, err := circuits.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	cap1, err := TrueSwitchedCap(nw, sim.RandomStimulus(r, 500, len(nw.PIs()), 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if cap1 <= 0 {
		t.Fatal("switched cap should be positive")
	}
	// A frozen input stream switches nothing.
	frozen := make([][]bool, 100)
	for i := range frozen {
		frozen[i] = make([]bool, len(nw.PIs()))
	}
	cap0, err := TrueSwitchedCap(nw, pack(t, frozen))
	if err != nil {
		t.Fatal(err)
	}
	if cap0 != 0 {
		t.Errorf("frozen workload switched %v", cap0)
	}
	if _, err := TrueSwitchedCap(nw, sim.Stimulus{}); err == nil {
		t.Error("empty workload should fail")
	}
}

func TestCharacterizeMonotoneActivityModel(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	ch, err := Characterize("mult4", nw, r, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if ch.GateCount != nw.NumGates() {
		t.Error("gate count mismatch")
	}
	if ch.FixedCap <= 0 {
		t.Error("fixed cap should be positive")
	}
	for i := 1; i < len(ch.ActPoints); i++ {
		if ch.ActPoints[i][1] < ch.ActPoints[i-1][1] {
			t.Error("switched cap should grow with input activity")
		}
	}
	// The activity model at toggle rate 0.5 should be close to FixedCap.
	pred := ch.PredictActivity(1.0, 0.5)
	if math.Abs(pred-ch.FixedCap)/ch.FixedCap > 0.25 {
		t.Errorf("activity model at nominal rate %v far from fixed cap %v", pred, ch.FixedCap)
	}
}

func TestActivityModelBeatsFixedOnBiasedWorkloads(t *testing.T) {
	// E14 shape: on a workload whose statistics differ from the random
	// calibration stream (correlated low-activity traffic), the
	// activity-sensitive model is more accurate than the fixed-cap model,
	// which in turn beats the gate-count model calibrated on another
	// module type.
	mult, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	add, err := circuits.RippleAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	chMult, err := Characterize("mult4", mult, r, 2000)
	if err != nil {
		t.Fatal(err)
	}
	chAdd, err := Characterize("radd8", add, r, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// Technology constant calibrated on the ADDER, applied to the
	// multiplier — the gate-count model's classic failure mode.
	capPerGate := CalibrateGateCount(chAdd)

	// Correlated workload: random walk operands (low toggle rate).
	words := sim.WalkWords(r, 3000, len(mult.PIs()), 2)
	walk := sim.DrawStimulus(len(words), len(mult.PIs()), func(i, j int) bool { return words[i]>>j&1 != 0 })
	truth, err := TrueSwitchedCap(mult, walk)
	if err != nil {
		t.Fatal(err)
	}
	ws := AnalyzeWorkload(walk, 1.0)
	if ws.ToggleRate >= 0.4 {
		t.Fatalf("walk toggle rate %v not low enough to discriminate", ws.ToggleRate)
	}
	errs := ModelErrors(chMult, capPerGate, truth, ws)
	absA := math.Abs(errs["activity"])
	absF := math.Abs(errs["fixed"])
	absG := math.Abs(errs["gatecount"])
	if absA >= absF {
		t.Errorf("activity model error %v should beat fixed %v", absA, absF)
	}
	if absF >= absG {
		t.Errorf("fixed model error %v should beat cross-calibrated gate count %v", absF, absG)
	}
	// Activity model should be decently accurate in absolute terms.
	if absA > 0.30 {
		t.Errorf("activity model error %v too large", absA)
	}
}

func TestModelsAgreeOnCalibrationWorkload(t *testing.T) {
	// On the same statistics used for calibration, fixed and activity
	// models should both land near the truth.
	nw, err := circuits.Comparator(6)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	ch, err := Characterize("cmp6", nw, r, 2000)
	if err != nil {
		t.Fatal(err)
	}
	vecs := sim.RandomStimulus(r, 3000, len(nw.PIs()), 0.5)
	truth, err := TrueSwitchedCap(nw, vecs)
	if err != nil {
		t.Fatal(err)
	}
	ws := AnalyzeWorkload(vecs, 1.0)
	errs := ModelErrors(ch, CalibrateGateCount(ch), truth, ws)
	for _, m := range []string{"fixed", "activity"} {
		if math.Abs(errs[m]) > 0.15 {
			t.Errorf("%s model error %v on calibration-like workload", m, errs[m])
		}
	}
	// Gate-count model self-calibrated on the same module is also fine
	// here (its failure is cross-module transfer).
	if math.Abs(errs["gatecount"]) > 0.15 {
		t.Errorf("self-calibrated gatecount error %v", errs["gatecount"])
	}
}

func TestActiveFractionScalesPredictions(t *testing.T) {
	ch := Characterization{Name: "m", GateCount: 100, FixedCap: 50,
		ActPoints: [][2]float64{{0, 10}, {0.5, 50}, {1, 90}}}
	if ch.PredictFixed(0.5) != 25 {
		t.Error("fixed prediction should scale with activation")
	}
	full := ch.PredictActivity(1.0, 0.25)
	half := ch.PredictActivity(0.5, 0.25)
	if math.Abs(full-2*half) > 1e-9 {
		t.Error("activity prediction should scale with activation")
	}
	if ch.PredictActivity(1.0, -10) != 10 {
		t.Error("below-range toggle rate should clamp to the first point")
	}
	if ch.PredictActivity(1.0, 2) != 90 {
		t.Error("above-range toggle rate should clamp to the last point")
	}
	if got := ch.PredictActivity(1.0, 0.25); got != 30 {
		t.Errorf("interpolated prediction = %v, want 30", got)
	}
	if (Characterization{FixedCap: 7}).PredictActivity(1.0, 0.5) != 7 {
		t.Error("empty table should fall back to FixedCap")
	}
	if CalibrateGateCount(Characterization{}) != 0 {
		t.Error("zero gate count calibration should be 0")
	}
}

// TestInputToggleRate: toggles count from cycle 1, so vector 0's ones are
// not transitions.
func TestInputToggleRate(t *testing.T) {
	for _, c := range []struct {
		rows [][]bool
		want float64
	}{
		{[][]bool{{false, false}, {true, true}, {false, false}}, 1},
		{[][]bool{{true, false}, {true, true}, {false, true}}, 0.5},
		{[][]bool{{true, true}}, 0},
		{nil, 0},
	} {
		if got := AnalyzeWorkload(pack(t, c.rows), 1).ToggleRate; got != c.want {
			t.Errorf("%v: toggle rate = %v, want %v", c.rows, got, c.want)
		}
	}
}

// pack packs a test's vector stream.
func pack(t *testing.T, vecs [][]bool) sim.Stimulus {
	t.Helper()
	st, err := sim.PackVectors(vecs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
