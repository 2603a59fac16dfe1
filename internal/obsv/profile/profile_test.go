package profile_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"math"
	"math/rand"
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
	col := profile.NewCollector(nw.NumNodes())
	spec := power.Spec{Method: power.MethodSimulated, Params: p, CapModel: cm, Vectors: vectors, Tracer: col}
	simRep, err := power.Estimate(context.Background(), nw, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Method = power.MethodDensity
	estRep, err := power.Estimate(context.Background(), nw, spec)
	if err != nil {
		t.Fatal(err)
	}
	return profile.FromReports(nw.Name, simRep, estRep, col), simRep
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

// The collector must agree with the simulator's own per-node counters on
// gate outputs — it observes the same run through the Tracer hook.
func TestCollectorMatchesSimulatorCounts(t *testing.T) {
	nw, err := circuits.ArrayMultiplier(4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(nw, sim.UnitDelay)
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector(nw.NumNodes())
	s.SetTracer(col)
	r := rand.New(rand.NewSource(11))
	if _, err := s.Run(sim.RandomVectors(r, 100, len(nw.PIs()), 0.5)); err != nil {
		t.Fatal(err)
	}
	if col.Cycles() != s.Cycles() {
		t.Fatalf("collector cycles %d != simulator cycles %d", col.Cycles(), s.Cycles())
	}
	for _, id := range nw.Gates() {
		if got, want := col.Transitions(id), s.Transitions(id); got != want {
			t.Errorf("node %s: collector transitions %d != simulator %d", nw.Node(id).Name, got, want)
		}
		gs := col.GlitchShare(id)
		if gs < 0 || gs > 1 {
			t.Errorf("node %s: glitch share %v out of [0,1]", nw.Node(id).Name, gs)
		}
		if s.Transitions(id) > 0 {
			want := float64(s.Transitions(id)-s.UsefulTransitions(id)) / float64(s.Transitions(id))
			if math.Abs(gs-want) > 1e-12 {
				t.Errorf("node %s: glitch share %v, want %v", nw.Node(id).Name, gs, want)
			}
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
