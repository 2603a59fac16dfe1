package profile_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obsv/profile"
	"repro/internal/obsv/trace"
)

func TestTraceJSONSpansAndMetadata(t *testing.T) {
	tr := &profile.Trace{Process: "lpflow", Thread: "flow:lowpower"}
	tr.Add(profile.Span{
		Name: "strash", Cat: "pass", StartNs: 1500, DurNs: 2500,
		Args: map[string]interface{}{"dpower": -12.5, "dgates": -3},
	})
	tr.Add(profile.Span{Name: "balance", Cat: "pass", StartNs: 9000, DurNs: 4000,
		Args: map[string]interface{}{"dpower": -80.0, "dgates": 40}})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Cat  string                 `json:"cat"`
			Ph   string                 `json:"ph"`
			Ts   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			Pid  int                    `json:"pid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Args["dpower"] == nil {
				t.Errorf("span %q missing dpower annotation", ev.Name)
			}
		case "M":
			meta++
		}
	}
	if complete != 2 {
		t.Errorf("got %d complete spans, want 2", complete)
	}
	if meta != 2 {
		t.Errorf("got %d metadata events, want 2 (process_name, thread_name)", meta)
	}
	// ts/dur are microseconds.
	for _, ev := range doc.TraceEvents {
		if ev.Name == "strash" && (ev.Ts != 1.5 || ev.Dur != 2.5) {
			t.Errorf("strash span ts=%v dur=%v, want 1.5/2.5 us", ev.Ts, ev.Dur)
		}
	}

	var buf2 bytes.Buffer
	if err := tr.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("trace JSON not deterministic")
	}
}

// TestFromTracerKeepsTreeAndAttrs converts a small span tree: every span
// becomes one complete event whose category is its name up to the first
// '.', whose args carry its span, parent and trace IDs and attributes,
// and a span still open at capture time exports with duration 0.
func TestFromTracerKeepsTreeAndAttrs(t *testing.T) {
	ctx, root := trace.New(context.Background(), "flow.lowpower")
	pctx, pass := trace.Start(ctx, "pass.balance")
	pass.SetAttr("dgates", -3)
	_, measure := trace.Start(pctx, "core.measure")
	measure.End()
	pass.End()
	trace.Start(ctx, "unfinished") // never ended
	root.End()
	tr := root.Tracer()

	pt := profile.FromTracer(tr, "lpflow", "flow:lowpower")
	if pt.Process != "lpflow" || pt.Thread != "flow:lowpower" {
		t.Errorf("track %q/%q", pt.Process, pt.Thread)
	}
	spans := tr.Snapshot()
	if len(pt.Spans) != len(spans) {
		t.Fatalf("%d events for %d spans", len(pt.Spans), len(spans))
	}
	wantCat := map[string]string{"flow.lowpower": "flow", "pass.balance": "pass", "core.measure": "core", "unfinished": "unfinished"}
	for i, s := range pt.Spans {
		sd := spans[i]
		if s.Name != sd.Name || s.Cat != wantCat[sd.Name] || s.StartNs != sd.StartNs {
			t.Errorf("event %d = %q cat %q start %d, span %q start %d", i, s.Name, s.Cat, s.StartNs, sd.Name, sd.StartNs)
		}
		if s.Args["span_id"] != sd.SpanID || s.Args["parent_id"] != sd.ParentID || s.Args["trace_id"] != tr.ID() {
			t.Errorf("%s: args %v, want span %d parent %d trace %s", sd.Name, s.Args, sd.SpanID, sd.ParentID, tr.ID())
		}
		switch {
		case sd.DurNs < 0 && s.DurNs != 0:
			t.Errorf("%s: open span exported with duration %d, want 0", sd.Name, s.DurNs)
		case sd.DurNs >= 0 && s.DurNs != sd.DurNs:
			t.Errorf("%s: duration %d, span %d", sd.Name, s.DurNs, sd.DurNs)
		}
	}
	if pt.Spans[1].Args["dgates"] != -3 {
		t.Errorf("pass attrs not carried: %v", pt.Spans[1].Args)
	}
	if pt.Spans[2].Args["parent_id"] != spans[1].SpanID {
		t.Errorf("core.measure parent %v, want the pass %d", pt.Spans[2].Args["parent_id"], spans[1].SpanID)
	}
	if spans[3].DurNs != -1 {
		t.Fatalf("unfinished span has duration %d, want still open", spans[3].DurNs)
	}
}
