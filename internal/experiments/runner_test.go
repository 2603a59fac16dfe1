package experiments

import (
	"context"
	"testing"
)

// TestRunAllParallelIdenticalTables: the tables coming out of a parallel
// RunAllCtx are identical, row for row, to a sequential pass — experiment
// generators are self-seeded and share no mutable state.
func TestRunAllParallelIdenticalTables(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment table twice")
	}
	list := All()
	seq := RunAllCtx(context.Background(), list, 1, 0)
	par := RunAllCtx(context.Background(), list, 4, 0)
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != list[i].ID || par[i].ID != list[i].ID {
			t.Fatalf("result %d out of order: seq %s, par %s, want %s", i, seq[i].ID, par[i].ID, list[i].ID)
		}
		if (seq[i].Err == nil) != (par[i].Err == nil) {
			t.Fatalf("%s: error mismatch: seq %v, par %v", list[i].ID, seq[i].Err, par[i].Err)
		}
		if seq[i].Err != nil {
			continue
		}
		a, b := seq[i].Table.Format(), par[i].Table.Format()
		if a != b {
			t.Errorf("%s: parallel table differs from sequential:\n--- sequential\n%s\n--- parallel\n%s", list[i].ID, a, b)
		}
	}
}

// TestRunAllClampsWorkers: degenerate worker counts neither panic nor
// drop results.
func TestRunAllClampsWorkers(t *testing.T) {
	list := All()[:1]
	for _, par := range []int{-1, 0, 1, 100} {
		res := RunAllCtx(context.Background(), list, par, 0)
		if len(res) != 1 || res[0].ID != list[0].ID {
			t.Fatalf("parallel=%d: unexpected results %+v", par, res)
		}
		if res[0].Err != nil {
			t.Fatalf("parallel=%d: %v", par, res[0].Err)
		}
		if res[0].DurNs <= 0 {
			t.Errorf("parallel=%d: missing span duration", par)
		}
	}
}
