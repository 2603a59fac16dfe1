package experiments

import (
	"context"
	"testing"

	"repro/internal/obsv/trace"
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
// drop results, and each run records its experiment.<ID> span, ended and
// annotated, under the caller's trace.
func TestRunAllClampsWorkers(t *testing.T) {
	list := All()[:1]
	for _, par := range []int{-1, 0, 1, 100} {
		ctx, root := trace.New(context.Background(), "run")
		res := RunAllCtx(ctx, list, par, 0)
		if len(res) != 1 || res[0].ID != list[0].ID {
			t.Fatalf("parallel=%d: unexpected results %+v", par, res)
		}
		if res[0].Err != nil {
			t.Fatalf("parallel=%d: %v", par, res[0].Err)
		}
		spans := root.Tracer().Snapshot()
		if len(spans) != 2 {
			t.Fatalf("parallel=%d: %d spans, want the root and one experiment", par, len(spans))
		}
		sp := spans[1]
		if sp.Name != "experiment."+list[0].ID || sp.ParentID != spans[0].SpanID {
			t.Errorf("parallel=%d: span %q parent %d, want experiment.%s under the root", par, sp.Name, sp.ParentID, list[0].ID)
		}
		if sp.DurNs <= 0 {
			t.Errorf("parallel=%d: span not ended: dur %d", par, sp.DurNs)
		}
		if sp.Attrs["title"] != res[0].Table.Title || sp.Attrs["rows"] != len(res[0].Table.Rows) || sp.Attrs["error"] != nil {
			t.Errorf("parallel=%d: span attrs %v", par, sp.Attrs)
		}
	}
}
