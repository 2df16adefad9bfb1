package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Flight recorder: an always-on, bounded ring of recent observability
// events — span ends, log records, journal events, and query lifecycle
// transitions — kept in memory so that the moments *before* an anomaly
// are available when a watchdog fires or the process crashes. Incident
// reports (incident.go) and crash dumps embed a slice of this ring as
// one correlated timeline.
//
// The recorder is deliberately lock-cheap: a single short mutex-guarded
// ring write, no allocation inside the critical section.
// BenchmarkFlightRecordOn measures it.

// FlightEvent is one entry in the recorder's ring. Kind is the source
// ("span", "log", "journal", "query"); TraceID and QueryID, when set,
// correlate the entry with /debug/traces and /debug/queries.
type FlightEvent struct {
	Time    time.Time     `json:"time"`
	Kind    string        `json:"kind"`
	Name    string        `json:"name"`
	Detail  string        `json:"detail,omitempty"`
	TraceID uint64        `json:"trace_id,omitempty"`
	QueryID string        `json:"query_id,omitempty"`
	Dur     time.Duration `json:"dur_ns,omitempty"`
}

// FlightRecorder is a fixed-size ring of FlightEvents. The zero value
// is not usable; use NewFlightRecorder. A nil recorder is a no-op.
type FlightRecorder struct {
	now func() time.Time // injectable for deterministic tests

	mu   sync.Mutex
	ring ring[FlightEvent]
}

// NewFlightRecorder returns a recorder retaining the last size events.
func NewFlightRecorder(size int) *FlightRecorder {
	return &FlightRecorder{ring: newRing[FlightEvent](size), now: time.Now}
}

// DefaultFlight is the process-wide recorder every obs hook writes to.
var DefaultFlight = NewFlightRecorder(2048)

// setClock replaces the recorder's time source (tests only).
func (f *FlightRecorder) setClock(now func() time.Time) { f.now = now }

// Record appends ev to the ring, stamping ev.Time if unset.
func (f *FlightRecorder) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = f.now()
	}
	f.mu.Lock()
	f.ring.push(ev)
	f.mu.Unlock()
}

// Note records a bare event built from its arguments — the convenience
// form hooks use.
func (f *FlightRecorder) Note(kind, name, detail string) {
	f.Record(FlightEvent{Kind: kind, Name: name, Detail: detail})
}

// Events returns the retained events oldest-first.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring.oldestFirst()
}

// Slice returns the most recent n events, oldest-first (all retained
// events when n <= 0 or larger than the ring).
func (f *FlightRecorder) Slice(n int) []FlightEvent {
	evs := f.Events()
	if n > 0 && n < len(evs) {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Reset drops all retained events (tests and post-dump hygiene).
func (f *FlightRecorder) Reset() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring.reset()
	f.mu.Unlock()
}

// Timeline renders events as one text timeline, oldest-first:
//
//	15:04:05.123  query    begin sql        q7 SELECT ...
//	15:04:05.140  span     scan T           trace=42 dur=17ms
func Timeline(evs []FlightEvent) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "%s  %-8s %s", ev.Time.Format("15:04:05.000"), ev.Kind, ev.Name)
		if ev.QueryID != "" {
			fmt.Fprintf(&b, "  %s", ev.QueryID)
		}
		if ev.Detail != "" {
			fmt.Fprintf(&b, "  %s", ev.Detail)
		}
		if ev.TraceID != 0 {
			fmt.Fprintf(&b, "  trace=%d", ev.TraceID)
		}
		if ev.Dur != 0 {
			fmt.Fprintf(&b, "  dur=%s", ev.Dur.Round(time.Microsecond))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
