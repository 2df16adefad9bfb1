package obs

import (
	"context"
	"sync"
	"time"
)

// Slow-query log: queries whose wall time crosses a configurable
// threshold get their analyzed plan logged through the slog bridge and
// retained in a bounded ring, so the evidence for "what was slow last
// night" survives without unbounded memory. GET /debug/slow serves the
// ring newest-first.

// SlowQuery is one retained slow-query record.
type SlowQuery struct {
	ID      string        `json:"id"`
	Kind    string        `json:"kind"`
	Text    string        `json:"query"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Plan    string        `json:"plan,omitempty"` // EXPLAIN ANALYZE rendering
	Time    time.Time     `json:"time"`
}

// SlowLog retains queries slower than its threshold in a bounded ring.
// A nil or zero-threshold log drops everything; methods are safe on a
// nil receiver.
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration
	ring      ring[SlowQuery]
}

var slowQueries = NewCounter("probkb_slow_queries_total", "Queries that crossed the slow-query threshold.")

// DefaultSlowLog is the process-wide slow-query log (threshold off
// until SetThreshold; the server's -slow flag sets it).
var DefaultSlowLog = NewSlowLog(128)

// NewSlowLog returns a log retaining at most size records.
func NewSlowLog(size int) *SlowLog {
	return &SlowLog{ring: newRing[SlowQuery](size)}
}

// SetThreshold sets the slow threshold; 0 disables the log.
func (l *SlowLog) SetThreshold(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.threshold = d
	l.mu.Unlock()
}

// Threshold returns the current slow threshold (0 = disabled).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.threshold
}

// Note records a finished query if it crossed the threshold: the record
// enters the ring, a counter increments, and the slog bridge logs it
// (with the plan, so the log line alone is actionable). It reports
// whether the query was slow.
func (l *SlowLog) Note(ctx context.Context, q SlowQuery) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	if l.threshold <= 0 || q.Elapsed < l.threshold {
		l.mu.Unlock()
		return false
	}
	if q.Time.IsZero() {
		q.Time = time.Now()
	}
	l.ring.push(q)
	l.mu.Unlock()
	slowQueries.Inc()
	Log(ctx).Warn("slow query",
		"query_id", q.ID, "kind", q.Kind, "elapsed", q.Elapsed.String(),
		"query", q.Text, "plan", q.Plan)
	return true
}

// List returns the retained slow queries, newest first.
func (l *SlowLog) List() []SlowQuery {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.newestFirst()
}
