package dontcare

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/power"
	"repro/internal/sop"
)

// cdcExample builds a network where gate g's inputs can never both be 1:
// g = AND(a&b, a&!b) — the pattern (1,1) is a controllability don't-care.
func cdcExample(t *testing.T) (*logic.Network, logic.NodeID) {
	t.Helper()
	nw := logic.New("cdc")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	nb := nw.MustGate("nb", logic.Not, b)
	x := nw.MustGate("x", logic.And, a, b)
	y := nw.MustGate("y", logic.And, a, nb)
	g := nw.MustGate("g", logic.Or, x, y)
	if err := nw.MarkOutput(g); err != nil {
		t.Fatal(err)
	}
	return nw, g
}

func TestAnalyzeCDC(t *testing.T) {
	nw, g := cdcExample(t)
	dc, err := Analyze(nw, g, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Pattern (x=1, y=1) is impossible.
	if !dc.DC.Eval([]bool{true, true}) {
		t.Error("pattern 11 should be a controllability don't-care")
	}
	if dc.DC.Eval([]bool{true, false}) || dc.DC.Eval([]bool{false, true}) {
		t.Error("producible patterns must not be don't-cares")
	}
	if dc.PatternProb[3] != 0 {
		t.Errorf("P(pattern 11) = %v, want 0", dc.PatternProb[3])
	}
	// Probabilities sum to 1.
	sum := 0.0
	for _, p := range dc.PatternProb {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("pattern probabilities sum to %v", sum)
	}
}

// odcExample: out = AND(g, c). When c=0, g is unobservable.
func odcExample(t *testing.T) (*logic.Network, logic.NodeID) {
	t.Helper()
	nw := logic.New("odc")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	c := nw.MustInput("c")
	g := nw.MustGate("g", logic.Or, a, b)
	out := nw.MustGate("out", logic.And, g, c)
	if err := nw.MarkOutput(out); err != nil {
		t.Fatal(err)
	}
	return nw, g
}

func TestAnalyzeODC(t *testing.T) {
	nw, g := odcExample(t)
	// Give c a tiny 1-probability: g is almost never observed.
	inProb := power.Probabilities{nw.ByName("c"): 0.0}
	dc, err := Analyze(nw, g, inProb, true)
	if err != nil {
		t.Fatal(err)
	}
	// With c's probability 0 the ODC condition (c=0) does not make local
	// patterns full don't-cares (a,b still produce every pattern and c is
	// a separate input), so the DC set stays controllability-only — g has
	// none. The interesting case is when g's fanins overlap the
	// observability condition; see below.
	_ = dc

	// Make observability structural: out = AND(g, a) where g = OR(a, b).
	// When a=0 ... g observable. When a=1, g=1 is forced (CDC covers it).
	nw2 := logic.New("odc2")
	a := nw2.MustInput("a")
	b := nw2.MustInput("b")
	g2 := nw2.MustGate("g", logic.Or, a, b)
	na := nw2.MustGate("na", logic.Not, a)
	out := nw2.MustGate("out", logic.And, g2, na)
	if err := nw2.MarkOutput(out); err != nil {
		t.Fatal(err)
	}
	dc2, err := Analyze(nw2, g2, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	// Local pattern (a=1, b=*) is observable-don't-care: na=0 kills it.
	if !dc2.DC.Eval([]bool{true, false}) || !dc2.DC.Eval([]bool{true, true}) {
		t.Errorf("patterns with a=1 should be don't-cares (ODC via na): %s", dc2.DC)
	}
	if dc2.DC.Eval([]bool{false, true}) {
		t.Error("pattern a=0,b=1 is observable and must not be DC")
	}
	_ = out
}

func TestLocalOnSetMatchesGate(t *testing.T) {
	nw := logic.New("l")
	a := nw.MustInput("a")
	b := nw.MustInput("b")
	c := nw.MustInput("c")
	for _, gt := range []logic.GateType{logic.And, logic.Or, logic.Nand, logic.Nor, logic.Xor, logic.Xnor} {
		id := nw.MustGate("g_"+gt.String(), gt, a, b, c)
		cv := localOnSet(nw.Node(id))
		for pat := 0; pat < 8; pat++ {
			in := patternBits(pat, 3)
			if cv.Eval(in) != logic.EvalGate(gt, in) {
				t.Errorf("%s: cover disagrees at pattern %d", gt, pat)
			}
		}
	}
}

func TestOptimizeAreaPreservesFunction(t *testing.T) {
	nw, _ := cdcExample(t)
	orig := nw.Clone()
	res, err := OptimizeNetwork(nw, Options{Objective: Area, UseODC: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	eq, err := logic.Equivalent(orig, nw)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("area optimization changed the function")
	}
	if res.NodesVisited == 0 {
		t.Error("no nodes visited")
	}
}

func TestOptimizeNodeActivityReducesActivity(t *testing.T) {
	nw, g := cdcExample(t)
	orig := nw.Clone()
	before, err := power.ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	actBefore := before.Activity(g)
	res, err := OptimizeNetwork(nw, Options{Objective: NodeActivity, UseODC: true})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := logic.Equivalent(orig, nw)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("activity optimization changed the function")
	}
	if res.NodesRewritten == 0 {
		t.Skip("no rewrite opportunities found on this example")
	}
	// The g node may have been replaced; find its PO driver.
	po := nw.POs()[0]
	after, err := power.ExactProbabilities(context.Background(), nw, nil, bdd.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Activity(po) > actBefore+1e-12 {
		t.Errorf("PO activity rose from %v to %v", actBefore, after.Activity(po))
	}
}

func TestOptimizeNetworkPowerOnBenchmarks(t *testing.T) {
	for _, build := range []func() (*logic.Network, error){
		func() (*logic.Network, error) { return circuits.Comparator(4) },
		func() (*logic.Network, error) { return circuits.ALU(3) },
	} {
		nw, err := build()
		if err != nil {
			t.Fatal(err)
		}
		checkPowerNeverRaised(t, nw)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	nw, _ := cdcExample(t)
	if _, err := Analyze(nw, nw.ByName("a"), nil, false); err == nil {
		t.Error("Analyze on a PI should fail")
	}
}

func TestObjectiveString(t *testing.T) {
	if Area.String() != "area" || NodeActivity.String() != "node-activity" || NetworkPower.String() != "network-power" {
		t.Error("objective names wrong")
	}
	if Objective(9).String() != "objective(9)" {
		t.Error("unknown objective should format numerically")
	}
}

func TestDcPolarized(t *testing.T) {
	k := 2
	dc := &NodeDC{
		On: mustParse(t, 2, "11", "10"),
		DC: mustParse(t, 2, "10"),
	}
	lo, hi, err := dcPolarized(dc, k)
	if err != nil {
		t.Fatal(err)
	}
	// lo: onset minus DC = {11}. hi: onset plus DC = {11,10}.
	if !lo.Eval([]bool{true, true}) || lo.Eval([]bool{true, false}) {
		t.Errorf("lo cover wrong: %s", lo)
	}
	if !hi.Eval([]bool{true, true}) || !hi.Eval([]bool{true, false}) {
		t.Errorf("hi cover wrong: %s", hi)
	}
}

// TestPolarizedAndProbMatchReference holds dcPolarized and coverProb,
// which read truth tables, to the cube-by-cube evaluation of every
// pattern: the same cube lists in the same order, and bit-identical
// probabilities, on random local functions of up to 8 fanins.
func TestPolarizedAndProbMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	randomCover := func(k, cubes int) *sop.Cover {
		cv := sop.NewCover(k)
		for i := 0; i < cubes; i++ {
			c := make(sop.Cube, k)
			for j := range c {
				c[j] = sop.Lit(r.Intn(3))
			}
			cv.Cubes = append(cv.Cubes, c)
		}
		return cv
	}
	for trial := 0; trial < 300; trial++ {
		k := trial % (maxFanin + 1)
		dc := &NodeDC{On: randomCover(k, r.Intn(6)), DC: randomCover(k, r.Intn(4)), PatternProb: make([]float64, 1<<k)}
		for pat := range dc.PatternProb {
			dc.PatternProb[pat] = r.Float64() / float64(len(dc.PatternProb))
		}
		lo, hi, err := dcPolarized(dc, k)
		if err != nil {
			t.Fatal(err)
		}
		wantLo, wantHi := refDCPolarized(dc, k)
		if lo.String() != wantLo.String() || hi.String() != wantHi.String() {
			t.Fatalf("trial %d: dcPolarized = %q / %q, want %q / %q", trial, lo, hi, wantLo, wantHi)
		}
		for _, cv := range []*sop.Cover{dc.On, lo, hi} {
			got, err := coverProb(cv, dc.PatternProb)
			if err != nil {
				t.Fatal(err)
			}
			if want := refCoverProb(cv, dc.PatternProb, k); got != want {
				t.Fatalf("trial %d: coverProb = %v, want %v", trial, got, want)
			}
		}
	}
}

func mustParse(t *testing.T, n int, rows ...string) *sop.Cover {
	t.Helper()
	cv, err := sop.ParseCover(n, rows...)
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

// exactPower is a network's exact total power under uniform inputs and
// the default parameters.
func exactPower(t testing.TB, nw *logic.Network) float64 {
	t.Helper()
	rep, err := power.Estimate(context.Background(), nw, power.Spec{Method: power.MethodExact, Params: power.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Total()
}

// checkPowerNeverRaised runs the NetworkPower pass with ODCs, as the
// dontcare-power flow pass does, and fails if it breaks the network's
// structure, raises its exact power or, with at most 20 inputs, changes
// its function.
func checkPowerNeverRaised(t testing.TB, nw *logic.Network) {
	t.Helper()
	orig := nw.Clone()
	before := exactPower(t, nw)
	if _, err := OptimizeNetwork(nw, Options{Objective: NetworkPower, UseODC: true}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if len(nw.PIs()) <= 20 {
		if eq, err := logic.Equivalent(orig, nw); err != nil || !eq {
			t.Fatalf("%s: the pass changed the function (%v)", nw.Name, err)
		}
	}
	if after := exactPower(t, nw); after > before+1e-9 {
		t.Errorf("%s: exact power rose %.6g -> %.6g", nw.Name, before, after)
	}
}

// TestNetworkPowerNeverRaisesPower: on every generator and on seeded
// random netlists, strashed as the flows run them, the NetworkPower pass
// never returns a network with higher exact power than it was given.
func TestNetworkPowerNeverRaisesPower(t *testing.T) {
	nets := map[string]*logic.Network{}
	for _, name := range circuits.GeneratorNames() {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = nw
	}
	for seed := int64(1); seed <= 8; seed++ {
		nets[fmt.Sprintf("rnd%d", seed)] = readUpload(t, "rnd", seed, 16, false)
	}
	for seed := int64(1); seed <= 24; seed++ {
		nets[fmt.Sprintf("upload%d", seed)] = readUpload(t, "upload", seed, 24, false)
	}
	for name, nw := range nets {
		t.Run(name, func(t *testing.T) {
			if _, err := logic.Strash(nw); err != nil {
				t.Fatal(err)
			}
			checkPowerNeverRaised(t, nw)
		})
	}
}

// readUpload parses circuits.RandomUpload's netlist prefix<seed>.
func readUpload(t testing.TB, prefix string, seed int64, maxPIs int, sequential bool) *logic.Network {
	t.Helper()
	src := circuits.RandomUpload(rand.New(rand.NewSource(seed)), fmt.Sprintf("%s%d", prefix, seed), maxPIs, sequential)
	nw, err := logic.ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}
