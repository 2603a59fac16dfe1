package bddsynth_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bddsynth"
	"repro/internal/core"
	"repro/internal/logic"
)

// dupOutputNetwork parses an n-input BLIF with two outputs computing the
// same function through separate but identical logic: a chain that ANDs
// x0 with x1, then ORs in the odd inputs and ANDs in the even ones.
// Strash merges the two copies, leaving one node driving both outputs.
func dupOutputNetwork(t *testing.T, n int) *logic.Network {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, ".model dup%d\n.inputs", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " x%d", i)
	}
	b.WriteString("\n.outputs y z\n")
	for _, out := range []string{"y", "z"} {
		prev := "x0"
		for i := 1; i < n; i++ {
			cur := fmt.Sprintf("%s%d", out, i)
			if i == n-1 {
				cur = out
			}
			if i%2 == 1 {
				fmt.Fprintf(&b, ".names %s x%d %s\n11 1\n", prev, i, cur)
			} else {
				fmt.Fprintf(&b, ".names %s x%d %s\n1- 1\n-1 1\n", prev, i, cur)
			}
			prev = cur
		}
	}
	b.WriteString(".end\n")
	nw, err := logic.ReadBLIF(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// mustEquivalent fails unless got computes want's outputs.
func mustEquivalent(t *testing.T, want, got *logic.Network) {
	t.Helper()
	eq, err := logic.Equivalent(want, got)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("result is not equivalent to the input (outputs driven by %v)", got.POs())
	}
}

// TestSynthesizeDuplicateOutputDriver forces the MUX rewrite onto a
// strashed network whose one node drives both outputs. Redirecting the
// shared driver rewrites the output list in place; the rewrite must still
// wire both outputs to the MUX root, below and above the 16 inputs a flow
// verifies.
func TestSynthesizeDuplicateOutputDriver(t *testing.T) {
	for _, n := range []int{3, 17} {
		t.Run(fmt.Sprintf("%dinputs", n), func(t *testing.T) {
			nw := dupOutputNetwork(t, n)
			if _, err := logic.Strash(nw); err != nil {
				t.Fatal(err)
			}
			if pos := nw.POs(); pos[0] != pos[1] {
				t.Fatalf("strash left distinct drivers %v", pos)
			}
			want := nw.Clone()
			res, err := bddsynth.Synthesize(context.Background(), nw, bddsynth.Options{KeepWorse: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Applied {
				t.Fatalf("KeepWorse rewrite not applied: %+v", res)
			}
			if err := nw.Check(); err != nil {
				t.Fatal(err)
			}
			mustEquivalent(t, want, nw)
		})
	}
}

// TestBddmuxFlowDuplicateOutputDriver runs the bddmux flow on the same
// networks. With 3 inputs the flow verifies each pass itself; with 17 it
// does not, so the test checks the final network.
func TestBddmuxFlowDuplicateOutputDriver(t *testing.T) {
	for _, n := range []int{3, 17} {
		t.Run(fmt.Sprintf("%dinputs", n), func(t *testing.T) {
			nw := dupOutputNetwork(t, n)
			want := nw.Clone()
			if _, err := core.RunFlowCtx(context.Background(), nw, core.StandardFlows()["bddmux"], core.NewContext(nw, 1)); err != nil {
				t.Fatal(err)
			}
			mustEquivalent(t, want, nw)
		})
	}
}
