package profile

import (
	"encoding/json"
	"io"
	"sort"
	"strings"

	"repro/internal/obsv/trace"
)

// Span is one timed operation in a trace: a pass of a core.Flow run, an
// experiment table regeneration, a measurement. Args carry annotations
// (power/area deltas, row counts) shown in the Perfetto span details pane.
type Span struct {
	Name    string
	Cat     string // category: "pass", "core", "experiment", ...
	StartNs int64  // start offset from the trace origin
	DurNs   int64
	Args    map[string]interface{}
}

// Trace accumulates spans and serializes them in the Chrome trace_event
// JSON format understood by chrome://tracing and https://ui.perfetto.dev.
type Trace struct {
	// Process and Thread name the single track all spans land on (defaults
	// "lpflow"/"flow" when empty).
	Process string
	Thread  string
	Spans   []Span
}

// Add appends a span.
func (t *Trace) Add(s Span) { t.Spans = append(t.Spans, s) }

// FromTracer converts a tracer's span tree into a Chrome trace on one
// process/thread track. Each span's category is its name up to the first
// '.' ("pass.balance" → "pass"); its span, parent and trace IDs ride along
// as args with its attributes, so the hierarchy survives into the Perfetto
// details pane. A span still open at capture time exports with duration 0.
func FromTracer(t *trace.Tracer, process, thread string) *Trace {
	pt := &Trace{Process: process, Thread: thread}
	for _, sd := range t.Snapshot() {
		args := map[string]interface{}{
			"span_id":   sd.SpanID,
			"parent_id": sd.ParentID,
			"trace_id":  t.ID(),
		}
		for k, v := range sd.Attrs {
			args[k] = v
		}
		cat, _, _ := strings.Cut(sd.Name, ".")
		pt.Add(Span{Name: sd.Name, Cat: cat, StartNs: sd.StartNs, DurNs: max(sd.DurNs, 0), Args: args})
	}
	return pt
}

// traceEvent is one Chrome trace_event entry. Complete events (ph "X")
// carry their duration inline; ts/dur are microseconds (fractions allowed).
type traceEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteJSON emits the trace. Spans are sorted by start time; metadata
// events name the process and thread so Perfetto labels the track.
func (t *Trace) WriteJSON(w io.Writer) error {
	proc, thr := t.Process, t.Thread
	if proc == "" {
		proc = "lpflow"
	}
	if thr == "" {
		thr = "flow"
	}
	events := []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]interface{}{"name": proc}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]interface{}{"name": thr}},
	}
	spans := append([]Span(nil), t.Spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	for _, s := range spans {
		cat := s.Cat
		if cat == "" {
			cat = "span"
		}
		events = append(events, traceEvent{
			Name: s.Name,
			Cat:  cat,
			Ph:   "X",
			Ts:   float64(s.StartNs) / 1e3,
			Dur:  float64(s.DurNs) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: s.Args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: events, DisplayTimeUnit: "ns"})
}
