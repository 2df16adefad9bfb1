package obs

import (
	"context"
	"io"
	"log/slog"
	"sync/atomic"
)

// Structured logging. The pipeline shares one slog.Logger; Log(ctx)
// stamps records with the trace and span ids of the span carried by
// ctx, so a server log line can be correlated with the trace that
// produced it in /debug/traces.

var logger atomic.Pointer[slog.Logger]

func init() {
	logger.Store(slog.New(flightHandler{Handler: slog.Default().Handler()}))
}

// flightHandler tees every record the shared logger emits into the
// flight recorder before delegating, so log lines appear on the same
// timeline as spans, journal events, and query transitions. The
// trace/query correlation ids Log(ctx) attaches via With are captured
// in WithAttrs, since slog's non-Context log methods don't carry ctx.
type flightHandler struct {
	slog.Handler
	traceID uint64
	queryID string
}

func (h flightHandler) Handle(ctx context.Context, r slog.Record) error {
	ev := FlightEvent{
		Time: r.Time, Kind: "log", Name: r.Level.String(), Detail: r.Message,
		TraceID: h.traceID, QueryID: h.queryID,
	}
	if ev.TraceID == 0 {
		if s := SpanFrom(ctx); s != nil {
			ev.TraceID = s.TraceID()
		}
	}
	if ev.QueryID == "" {
		if q := QueryFrom(ctx); q != nil {
			ev.QueryID = q.ID()
		}
	}
	DefaultFlight.Record(ev)
	return h.Handler.Handle(ctx, r)
}

func (h flightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	for _, a := range attrs {
		switch a.Key {
		case "trace_id":
			if a.Value.Kind() == slog.KindUint64 {
				h.traceID = a.Value.Uint64()
			}
		case "query_id":
			h.queryID = a.Value.String()
		}
	}
	h.Handler = h.Handler.WithAttrs(attrs)
	return h
}

func (h flightHandler) WithGroup(name string) slog.Handler {
	h.Handler = h.Handler.WithGroup(name)
	return h
}

// SetLogger replaces the shared logger (e.g. with a JSON handler at a
// chosen level), wrapping it so records still reach the flight
// recorder. Safe for concurrent use.
func SetLogger(l *slog.Logger) {
	if l == nil {
		return
	}
	if _, ok := l.Handler().(flightHandler); !ok {
		l = slog.New(flightHandler{Handler: l.Handler()})
	}
	logger.Store(l)
}

// NewTextLogger builds a slog text logger writing to w at the given
// level and installs it as the shared logger.
func NewTextLogger(w io.Writer, level slog.Level) *slog.Logger {
	l := slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
	SetLogger(l)
	return l
}

// Logger returns the shared logger.
func Logger() *slog.Logger { return logger.Load() }

// Log returns the shared logger annotated with ctx's trace, span, and
// active-query ids (unannotated when ctx carries neither).
func Log(ctx context.Context) *slog.Logger {
	l := logger.Load()
	if s := SpanFrom(ctx); s != nil {
		l = l.With("trace_id", s.TraceID(), "span_id", s.SpanID())
	}
	if q := QueryFrom(ctx); q != nil {
		l = l.With("query_id", q.ID())
	}
	return l
}
