// Package trace is the request-scoped half of the observability layer:
// hierarchical wall-clock spans propagated through context, one Tracer
// per request (or flow run), each span carrying a name, parent, offset,
// duration and free-form attributes.
//
// It follows the same nil-safety contract as the obsv registry: when no
// Tracer is installed in the context, Start returns a nil *Span whose
// methods are all no-ops, so instrumented code pays one context lookup
// and a nil check. The package is pure stdlib and imports nothing from
// the rest of the toolkit, so the innermost engines (bdd, sim) can
// instrument themselves without import cycles; profile.FromTracer turns a
// Tracer's snapshot into the Chrome trace that lpflow, cmd/experiments and
// the server's slow-request dumps write.
//
// Typical server-side shape:
//
//	ctx, root := trace.New(r.Context(), "http estimate")
//	...
//	ctx, sp := trace.Start(ctx, "power.exact")   // child of root
//	sp.SetAttr("degraded", false)
//	sp.End()
//	...
//	root.End()
//	for _, sd := range root.Tracer().Snapshot() { ... }
package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// traceIDBase makes trace IDs distinct across process restarts: the
// counter alone guarantees uniqueness within a process, the base keeps
// two daemons' logs from colliding. Not cryptographic, not meant to be.
var (
	traceIDBase = uint64(time.Now().UnixNano())
	traceIDCtr  atomic.Uint64
)

// NewTraceID returns a 16-hex-digit process-unique trace identifier.
func NewTraceID() string {
	return fmt.Sprintf("%016x", traceIDBase^(traceIDCtr.Add(1)*0x9e3779b97f4a7c15))
}

// Tracer collects the spans of one trace (one request, one flow run).
// All methods are safe for concurrent use: any number of goroutines may
// start and end spans of the same trace.
type Tracer struct {
	id     string
	origin time.Time

	nextSpan atomic.Uint64

	mu    sync.Mutex
	spans []*Span
}

// ID returns the trace identifier ("" for nil).
func (t *Tracer) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Span is one timed operation inside a trace. A nil *Span is valid and
// every method on it is a no-op — the disabled-tracing fast path.
type Span struct {
	tr       *Tracer
	id       uint64
	parentID uint64 // 0 = root
	name     string
	start    time.Time
	startNs  int64 // offset from the trace origin

	durNs atomic.Int64 // -1 until End
	mu    sync.Mutex
	attrs map[string]any
}

// SpanData is an immutable snapshot of one span, the exchange format
// between the tracer and exporters.
type SpanData struct {
	SpanID   uint64
	ParentID uint64 // 0 for the root span
	Name     string
	StartNs  int64 // offset from the trace origin
	DurNs    int64 // -1 if the span had not ended at snapshot time
	Attrs    map[string]any
}

type ctxKey struct{}

// New creates a Tracer with a root span named name and returns a context
// carrying the root. Children started from the returned context (or any
// context derived from it) attach to the same trace.
func New(ctx context.Context, name string) (context.Context, *Span) {
	t := &Tracer{id: NewTraceID(), origin: time.Now()}
	sp := t.newSpan(name, 0)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Start begins a child of the context's active span and returns a context
// in which the child is active. When the context carries no trace — the
// disabled case — it returns ctx unchanged and a nil span.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.tr.newSpan(name, parent.id)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

func (t *Tracer) newSpan(name string, parent uint64) *Span {
	sp := &Span{
		tr:       t,
		id:       t.nextSpan.Add(1),
		parentID: parent,
		name:     name,
		start:    time.Now(),
	}
	sp.startNs = sp.start.Sub(t.origin).Nanoseconds()
	sp.durNs.Store(-1)
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}

// End records the span's duration. Safe to call more than once; only the
// first call sets the duration. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.durNs.CompareAndSwap(-1, time.Since(s.start).Nanoseconds())
}

// SetAttr attaches a key/value annotation to the span. No-op on nil.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// TraceID returns the owning trace's identifier ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// Tracer returns the owning tracer (nil for nil).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

// Snapshot returns a copy of every span started so far, in start order.
// Attribute maps are copied, so the snapshot is safe to hold while other
// goroutines keep annotating. Nil tracers return nil.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	out := make([]SpanData, len(spans))
	for i, sp := range spans {
		sd := SpanData{
			SpanID:   sp.id,
			ParentID: sp.parentID,
			Name:     sp.name,
			StartNs:  sp.startNs,
			DurNs:    sp.durNs.Load(),
		}
		sp.mu.Lock()
		if len(sp.attrs) > 0 {
			sd.Attrs = make(map[string]any, len(sp.attrs))
			for k, v := range sp.attrs {
				sd.Attrs[k] = v
			}
		}
		sp.mu.Unlock()
		out[i] = sd
	}
	return out
}
