package trace

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "orphan")
	if sp != nil {
		t.Fatalf("Start without a trace returned a non-nil span")
	}
	if ctx2 != ctx {
		t.Fatalf("Start without a trace rewrapped the context")
	}
	// Every method must be a no-op on nil.
	sp.End()
	sp.SetAttr("k", 1)
	if sp.Name() != "" || sp.TraceID() != "" {
		t.Fatalf("nil span accessors returned non-zero values")
	}
	if sp.Tracer().ID() != "" || sp.Tracer().Snapshot() != nil {
		t.Fatalf("nil tracer accessors returned non-zero values")
	}
}

func TestSpanTree(t *testing.T) {
	ctx, root := New(context.Background(), "request")
	if root == nil || root.TraceID() == "" {
		t.Fatalf("New returned %v with trace ID %q", root, root.TraceID())
	}
	ctx1, a := Start(ctx, "parse")
	a.SetAttr("bytes", 120)
	a.End()
	_, b := Start(ctx1, "inner") // child of a: started from a's context
	b.End()
	_, c := Start(ctx, "compute") // sibling of a: started from root's context
	c.SetAttr("estimator", "exact")
	c.End()
	root.End()

	sds := root.Tracer().Snapshot()
	if len(sds) != 4 {
		t.Fatalf("snapshot has %d spans, want 4", len(sds))
	}
	byName := map[string]SpanData{}
	for _, sd := range sds {
		byName[sd.Name] = sd
	}
	rootSD := byName["request"]
	if rootSD.ParentID != 0 {
		t.Fatalf("root span parent = %d, want 0", rootSD.ParentID)
	}
	if byName["parse"].ParentID != rootSD.SpanID || byName["compute"].ParentID != rootSD.SpanID {
		t.Fatalf("parse/compute should be children of root: %+v", byName)
	}
	if byName["inner"].ParentID != byName["parse"].SpanID {
		t.Fatalf("inner should be a child of parse: %+v", byName["inner"])
	}
	for _, name := range []string{"request", "parse", "inner", "compute"} {
		if byName[name].DurNs < 0 {
			t.Fatalf("span %q never ended: dur %d", name, byName[name].DurNs)
		}
	}
	if byName["parse"].Attrs["bytes"] != 120 {
		t.Fatalf("parse attrs = %v", byName["parse"].Attrs)
	}
}

func TestEndIsIdempotent(t *testing.T) {
	_, root := New(context.Background(), "r")
	root.End()
	first := root.durNs.Load()
	root.End()
	if root.durNs.Load() != first {
		t.Fatalf("second End changed the duration: %d -> %d", first, root.durNs.Load())
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace ID %q is not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

// TestConcurrentSpanTree hammers a single span tree from many goroutines —
// the server shape, where request handling fans out across workers that
// all annotate the same trace. Run under -race this is the data-race gate
// for the tracer.
func TestConcurrentSpanTree(t *testing.T) {
	const goroutines = 16
	const perG = 200
	ctx, root := New(context.Background(), "request")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				cctx, sp := Start(ctx, fmt.Sprintf("worker%d.op%d", g, i))
				sp.SetAttr("g", g)
				_, inner := Start(cctx, "inner")
				inner.SetAttr("i", i)
				inner.End()
				sp.End()
				// Concurrent readers must be safe too.
				if g == 0 && i%50 == 0 {
					root.Tracer().Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	root.End()

	sds := root.Tracer().Snapshot()
	want := 1 + goroutines*perG*2
	if len(sds) != want {
		t.Fatalf("snapshot has %d spans, want %d", len(sds), want)
	}
	ids := make(map[uint64]bool, len(sds))
	for _, sd := range sds {
		if ids[sd.SpanID] {
			t.Fatalf("duplicate span ID %d", sd.SpanID)
		}
		ids[sd.SpanID] = true
		if sd.DurNs < 0 {
			t.Fatalf("span %q never ended", sd.Name)
		}
	}
}
