package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bddsynth"
	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/sim"
)

// soakVectors is the length of the stimulus every soak result is
// stepped over from reset.
const soakVectors = 256

// TestUploadSoak runs every standard flow and every registered pass alone
// on seeded random uploads of up to 24 inputs, with Verify off and in both
// measurement modes, and checks each result by simulation from reset
// against the upload. A third of the uploads are sequential, and a third
// of the combinational ones list one output driver twice.
func TestUploadSoak(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("upload%d", seed), func(t *testing.T) {
			t.Parallel()
			soakUpload(t, seed)
		})
	}
}

// FuzzFlowUpload is TestUploadSoak on one fuzzed seed.
func FuzzFlowUpload(f *testing.F) {
	f.Add(int64(4))
	f.Add(int64(9))
	f.Fuzz(soakUpload)
}

// soakUpload runs the soak on the upload drawn from seed. Seeds divisible
// by 3 are sequential; among the others, every third marks a random
// output driver as an output a second time. Each combinational upload
// also gets a MUX emission with KeepWorse, which the bddsynth pass skips
// whenever its candidate does not pay.
func soakUpload(t *testing.T, seed int64) {
	u := uint64(seed)
	sequential := u%3 == 0
	r := rand.New(rand.NewSource(seed))
	src := circuits.RandomUpload(r, fmt.Sprintf("upload%d", seed), 24, sequential)
	nw, err := logic.ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatalf("upload %d: %v", seed, err)
	}
	if !sequential && (u-u/3)%3 == 0 {
		if err := nw.MarkOutput(nw.POs()[r.Intn(len(nw.POs()))]); err != nil {
			t.Fatal(err)
		}
	}
	vecs := sim.RandomVectors(r, soakVectors, len(nw.PIs()), 0.5)
	want := stepOutputs(t, nw, vecs)
	check := func(label string, got *logic.Network) {
		t.Helper()
		if out := stepOutputs(t, got, vecs); !slices.EqualFunc(out, want, slices.Equal) {
			t.Errorf("upload %d %s: the result's outputs differ from the upload's", seed, label)
		}
	}
	flows := StandardFlows()
	for _, name := range PassNames() {
		flows["pass-"+name] = Flow{Name: name, Passes: []string{name}}
	}
	modes := []bool{false, true}
	if sequential {
		modes = modes[:1] // a sequential network ignores Incremental
	}
	for _, incremental := range modes {
		for fname, flow := range flows {
			got := nw.Clone()
			fctx := NewContext(got, seed)
			fctx.Verify = false
			fctx.Incremental = incremental
			if _, err := RunFlow(got, flow, fctx); err != nil {
				t.Fatalf("upload %d %s (incremental %t): %v", seed, fname, incremental, err)
			}
			check(fmt.Sprintf("%s (incremental %t)", fname, incremental), got)
		}
	}
	if !sequential {
		got := nw.Clone()
		if _, err := bddsynth.Synthesize(context.Background(), got, bddsynth.Options{KeepWorse: true}); err != nil {
			t.Fatalf("upload %d bddsynth: %v", seed, err)
		}
		if err := got.Check(); err != nil {
			t.Fatalf("upload %d bddsynth: %v", seed, err)
		}
		check("bddsynth KeepWorse", got)
	}
}

// stepOutputs steps nw from reset over vecs and returns its outputs.
func stepOutputs(t *testing.T, nw *logic.Network, vecs [][]bool) [][]bool {
	t.Helper()
	st := logic.NewState(nw)
	out := make([][]bool, len(vecs))
	for i, in := range vecs {
		var err error
		if out[i], err = st.Step(in); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
