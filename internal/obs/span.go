package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline tracing. A Span is one timed stage of a request or expansion
// run; spans nest, forming a tree whose text rendering generalizes the
// engine's EXPLAIN ANALYZE output (Figure 4 of the paper) to the whole
// expansion pipeline: grounding iterations, factor export, Gibbs
// inference, and quality control all appear as children of one root
// span with self times and attributes.
//
// Usage:
//
//	ctx, span := obs.StartSpan(ctx, "ground")
//	defer span.End()
//	span.SetAttr("facts", added)
//
// Roots (spans started with no parent in ctx) are pushed into their
// tracer's bounded ring when they end, so /debug/traces can show the
// most recent pipeline runs of a live server.

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// Span is one node of a trace tree.
type Span struct {
	name    string
	traceID uint64
	spanID  uint64
	start   time.Time

	mu       sync.Mutex
	end      time.Time // zero while running
	attrs    []Attr
	children []*Span

	tracer *Tracer // set on roots only
}

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// TraceID returns the id shared by every span of one trace tree.
func (s *Span) TraceID() uint64 { return s.traceID }

// SpanID returns the span's own id.
func (s *Span) SpanID() uint64 { return s.spanID }

// Start returns when the span started.
func (s *Span) Start() time.Time { return s.start }

// SetAttr annotates the span; values render with %v.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End stops the clock. Ending twice keeps the first end time. A root
// span is published to its tracer's ring on first End.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	ended := !s.end.IsZero()
	if !ended {
		s.end = time.Now()
	}
	t := s.tracer
	var dur time.Duration
	if !ended {
		dur = s.end.Sub(s.start)
	}
	s.mu.Unlock()
	if !ended {
		DefaultFlight.Record(FlightEvent{
			Kind: "span", Name: s.name, TraceID: s.traceID, Dur: dur,
		})
		if t != nil {
			t.push(s)
		}
	}
}

// Duration returns the span's wall time (elapsed so far if running).
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durationLocked()
}

func (s *Span) durationLocked() time.Duration {
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// SelfTime returns the span's wall time minus its children's: the time
// spent in the stage itself, the per-operator "self time" convention of
// the engine's Explain.
func (s *Span) SelfTime() time.Duration {
	s.mu.Lock()
	d := s.durationLocked()
	kids := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, k := range kids {
		d -= k.Duration()
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Children returns a copy of the span's current children.
func (s *Span) Children() []*Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns a copy of the span's attributes.
func (s *Span) Attrs() []Attr {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Render returns the trace tree as indented text, one span per line with
// total time, self time, and attributes:
//
//	-> expand  (time=12.4ms self=80µs) engine=ProbKB
//	  -> ground  (time=9.1ms self=1.2ms) iterations=3
func (s *Span) Render() string {
	var b strings.Builder
	renderSpan(&b, s, 0)
	return b.String()
}

func renderSpan(b *strings.Builder, s *Span, depth int) {
	fmt.Fprintf(b, "%s-> %s  (time=%s self=%s)",
		strings.Repeat("  ", depth), s.name,
		s.Duration().Round(time.Microsecond), s.SelfTime().Round(time.Microsecond))
	for _, a := range s.Attrs() {
		fmt.Fprintf(b, " %s=%v", a.Key, a.Value)
	}
	b.WriteByte('\n')
	for _, k := range s.Children() {
		renderSpan(b, k, depth+1)
	}
}

// ids are process-unique; trace ids are the root's span id.
var nextID atomic.Uint64

type spanKey struct{}

// Tracer keeps a bounded ring of recently finished root spans.
type Tracer struct {
	mu   sync.Mutex
	ring ring[*Span]
}

// NewTracer returns a tracer retaining the last size root spans.
func NewTracer(size int) *Tracer {
	return &Tracer{ring: newRing[*Span](size)}
}

// DefaultTracer receives every root span started through StartSpan with
// a context carrying no parent.
var DefaultTracer = NewTracer(64)

func (t *Tracer) push(s *Span) {
	t.mu.Lock()
	t.ring.push(s)
	t.mu.Unlock()
}

// Traces returns the retained root spans, most recent first.
func (t *Tracer) Traces() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.newestFirst()
}

// Last returns the most recently finished root span, or nil.
func (t *Tracer) Last() *Span {
	tr := t.Traces()
	if len(tr) == 0 {
		return nil
	}
	return tr[0]
}

// LastTrace returns the default tracer's most recent root span, or nil.
func LastTrace() *Span { return DefaultTracer.Last() }

// StartSpan starts a span named name. If ctx carries a span, the new
// span becomes its child and shares its trace id; otherwise it is a new
// root registered with the default tracer. The returned context carries
// the new span for further nesting; callers must End it.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return startSpan(ctx, DefaultTracer, name)
}

func startSpan(ctx context.Context, t *Tracer, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	id := nextID.Add(1)
	s := &Span{name: name, spanID: id, start: time.Now()}
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		s.traceID = parent.traceID
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
	} else {
		s.traceID = id
		s.tracer = t
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
