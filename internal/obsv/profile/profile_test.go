package profile_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv/profile"
	"repro/internal/power"
	"repro/internal/sim"
)

// buildProfile runs the two estimators over a generated circuit exactly the
// way cmd/lpflow -profile does and returns the pieces.
func buildProfile(t *testing.T, nw *logic.Network, vectors [][]bool) (*profile.Profile, power.Report) {
	t.Helper()
	p := power.DefaultParams()
	cm := power.BufferWeightedCap(0.25)
	st, err := sim.PackVectors(vectors)
	if err != nil {
		t.Fatal(err)
	}
	spec := power.Spec{Method: power.MethodSimulated, Params: p, CapModel: cm, Vectors: st}
	simRep, err := power.Estimate(context.Background(), nw, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Method = power.MethodDensity
	estRep, err := power.Estimate(context.Background(), nw, spec)
	if err != nil {
		t.Fatal(err)
	}
	return profile.FromReports(nw.Name, simRep, estRep), simRep
}

func TestModuleSubtotalsSumToSimulatedPower(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	prof, simRep := buildProfile(t, nw, sim.RandomVectors(r, 200, len(nw.PIs()), 0.5))

	if prof.SimTotal != simRep.Total() {
		t.Fatalf("profile SimTotal %v != report total %v", prof.SimTotal, simRep.Total())
	}
	var sum float64
	mts := prof.ModuleTotals()
	for _, mt := range mts {
		sum += mt.SimPower
	}
	if rel := math.Abs(sum-prof.SimTotal) / prof.SimTotal; rel > 1e-9 {
		t.Errorf("module subtotals sum %v vs SimTotal %v (rel err %g > 1e-9)", sum, prof.SimTotal, rel)
	}
	// The multiplier's hierarchy must be visible: pp + fa/ha cells.
	seen := map[string]bool{}
	for _, mt := range mts {
		seen[mt.Module] = true
	}
	if !seen["pp"] {
		t.Error("missing partial-product module 'pp' in module totals")
	}
	anyFA := false
	for m := range seen {
		if strings.HasPrefix(m, "fa") {
			anyFA = true
		}
	}
	if !anyFA {
		t.Error("no full-adder cell modules in module totals")
	}
}

func TestTopRanksBySwitchedCapDeterministically(t *testing.T) {
	nw, err := circuits.RippleAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	prof, _ := buildProfile(t, nw, sim.RandomVectors(r, 150, len(nw.PIs()), 0.5))

	top := prof.Top(10)
	if len(top) != 10 {
		t.Fatalf("Top(10) returned %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].SimSwitchedCap() > top[i-1].SimSwitchedCap() {
			t.Errorf("Top not sorted: %q (%v) after %q (%v)",
				top[i].Name, top[i].SimSwitchedCap(), top[i-1].Name, top[i-1].SimSwitchedCap())
		}
	}
	if a, b := prof.FormatTop(5), prof.FormatTop(5); a != b {
		t.Error("FormatTop not deterministic")
	}
	if !strings.Contains(prof.FormatTop(5), "glitch%") {
		t.Error("FormatTop missing glitch column")
	}
}

// cnt3 is a sequential FSM: a 3-bit counter with enable whose state bits
// feed an XOR chain, so gates glitch while flip-flops toggle once a cycle.
const cnt3 = `.model cnt3
.inputs en x
.outputs p
.latch d0 q0 0
.latch d1 q1 0
.latch d2 q2 0
.names en q0 d0
01 1
10 1
.names en q0 c0
11 1
.names c0 q1 d1
01 1
10 1
.names c0 q1 c1
11 1
.names c1 q2 d2
01 1
10 1
.names q0 q1 t0
01 1
10 1
.names t0 q2 t1
01 1
10 1
.names t1 x p
01 1
10 1
.end
`

// TestCollectorMatchesSimulatorCounts: the profile's per-node glitch
// shares and cycle count are those of a sequential event-driven run over
// the same vectors — (Transitions−UsefulTransitions)/Transitions for gates,
// 0 for flip-flops (every toggle is useful) and primary inputs (not
// counted) — whether the simulated report came from one worker or two.
func TestCollectorMatchesSimulatorCounts(t *testing.T) {
	mult4, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	fsm, err := logic.ReadBLIF(strings.NewReader(cnt3))
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range []*logic.Network{mult4, fsm} {
		vecs := sim.RandomVectors(rand.New(rand.NewSource(11)), 300, len(nw.PIs()), 0.5)
		s, err := sim.New(nw, sim.UnitDelay)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(sim.RandomStimulus(rand.New(rand.NewSource(11)), 300, len(nw.PIs()), 0.5)); err != nil {
			t.Fatal(err)
		}
		var profs []*profile.Profile
		for _, workers := range []int{1, 2} {
			rep, _, err := power.EstimateSimulatedParallel(nw, power.DefaultParams(), nil, sim.UnitDelay, vecs, workers)
			if err != nil {
				t.Fatal(err)
			}
			profs = append(profs, profile.FromReports(nw.Name, rep, power.Report{}))
		}
		if !reflect.DeepEqual(profs[0], profs[1]) {
			t.Errorf("%s: profile at 2 workers differs from 1 worker", nw.Name)
		}
		prof := profs[0]
		if prof.Cycles != s.Cycles() || prof.Cycles != len(vecs) {
			t.Errorf("%s: profile cycles %d, simulator %d, vectors %d", nw.Name, prof.Cycles, s.Cycles(), len(vecs))
		}
		glitchy := 0
		for _, e := range prof.Entries {
			want := 0.0
			if n := s.Transitions(e.Node); n > 0 {
				want = float64(n-s.UsefulTransitions(e.Node)) / float64(n)
			}
			if e.SimGlitch != want {
				t.Errorf("%s: node %s glitch share %v, simulator counts give %v", nw.Name, e.Name, e.SimGlitch, want)
			}
			typ := nw.Node(e.Node).Type
			if (typ == logic.DFF || typ == logic.Input) && e.SimGlitch != 0 {
				t.Errorf("%s: source %s has glitch share %v, want 0", nw.Name, e.Name, e.SimGlitch)
			}
			if e.SimGlitch > 0 {
				glitchy++
			}
		}
		if glitchy == 0 {
			t.Errorf("%s: no node glitched; the check is vacuous", nw.Name)
		}
	}
}

func TestFoldedStacksHierarchyAndDeterminism(t *testing.T) {
	nw, err := circuits.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	prof, _ := buildProfile(t, nw, sim.RandomVectors(r, 100, len(nw.PIs()), 0.5))

	var a, b bytes.Buffer
	if err := prof.WriteFolded(&a); err != nil {
		t.Fatal(err)
	}
	if err := prof.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("folded output not deterministic")
	}
	found := false
	for _, line := range strings.Split(a.String(), "\n") {
		if strings.HasPrefix(line, "radd4;fa0;fa0.s ") {
			found = true
		}
		if line != "" && !strings.HasPrefix(line, "radd4;") {
			t.Errorf("folded line missing circuit root: %q", line)
		}
	}
	if !found {
		t.Errorf("expected a 'radd4;fa0;fa0.s <value>' stack, got:\n%s", a.String())
	}
}

// Decode enough of the emitted profile.proto to verify structure: gzip
// wrapper, string table containing node and module names, one sample per
// entry with four values, and leaf-first location order.
func TestPprofEncodesNodesAndModules(t *testing.T) {
	nw, err := circuits.RippleAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	prof, _ := buildProfile(t, nw, sim.RandomVectors(r, 100, len(nw.PIs()), 0.5))

	var buf bytes.Buffer
	if err := prof.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}

	strs, nSamples, nLocs, nFuncs := scanPprof(t, raw)
	has := func(s string) bool {
		for _, x := range strs {
			if x == s {
				return true
			}
		}
		return false
	}
	for _, want := range []string{"switched_cap_sim", "power_sim", "radd4", "fa0", "fa0.s"} {
		if !has(want) {
			t.Errorf("string table missing %q", want)
		}
	}
	if nSamples != len(prof.Entries) {
		t.Errorf("samples %d != entries %d", nSamples, len(prof.Entries))
	}
	if nLocs == 0 || nLocs != nFuncs {
		t.Errorf("locations %d / functions %d (want equal, nonzero)", nLocs, nFuncs)
	}

	// Determinism: no timestamps, so byte-identical re-encodes.
	var buf2 bytes.Buffer
	if err := prof.WritePprof(&buf2); err != nil {
		t.Fatal(err)
	}
	z2, _ := gzip.NewReader(&buf2)
	raw2, _ := io.ReadAll(z2)
	if !bytes.Equal(raw, raw2) {
		t.Error("pprof encoding not deterministic")
	}
}

// scanPprof walks the top-level fields of an uncompressed profile.proto
// message and returns the string table plus sample/location/function counts.
func scanPprof(t *testing.T, b []byte) (strs []string, samples, locs, funcs int) {
	t.Helper()
	i := 0
	readVarint := func() uint64 {
		var v uint64
		var shift uint
		for {
			if i >= len(b) {
				t.Fatal("truncated varint")
			}
			c := b[i]
			i++
			v |= uint64(c&0x7f) << shift
			if c < 0x80 {
				return v
			}
			shift += 7
		}
	}
	for i < len(b) {
		key := readVarint()
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			readVarint()
		case 2:
			n := int(readVarint())
			if i+n > len(b) {
				t.Fatal("truncated field")
			}
			payload := b[i : i+n]
			i += n
			switch field {
			case 2:
				samples++
			case 4:
				locs++
			case 5:
				funcs++
			case 6:
				strs = append(strs, string(payload))
			}
		default:
			t.Fatalf("unexpected wire type %d", wire)
		}
	}
	return strs, samples, locs, funcs
}
