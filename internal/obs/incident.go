package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Structured incident reports. When a watchdog detector fires, the
// incident store captures the process state an operator would want for
// a post-mortem — a flight-recorder slice, a full goroutine dump, a
// metrics snapshot, the active queries, and (when the finding names a
// query) its analyzed plan — into a bounded ring served at
// GET /debug/incidents and journaled as `incident` events. The same
// capture path backs crash dumps written on panic/SIGQUIT, so the
// evidence survives the process.

// Incident is one captured anomaly report.
type Incident struct {
	ID       string    `json:"id"`
	Time     time.Time `json:"time"`
	Detector string    `json:"detector"`
	Summary  string    `json:"summary"`

	// Query identifies the offending request when the detector named one.
	QueryID   string `json:"query_id,omitempty"`
	QueryKind string `json:"query_kind,omitempty"`
	QueryText string `json:"query_text,omitempty"`
	// Plan is the offending query's analyzed plan, when a planner is
	// wired and the query text re-plans.
	Plan string `json:"plan,omitempty"`

	// Flight is the flight-recorder slice leading up to the incident;
	// Timeline is its rendered form.
	Flight   []FlightEvent `json:"flight"`
	Timeline string        `json:"timeline"`

	// Queries lists what was in flight at capture time.
	Queries []QueryInfo `json:"queries,omitempty"`

	// Metrics is a scalar snapshot of the registry (name{labels} → value).
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// Goroutines is a full goroutine stack dump.
	Goroutines string `json:"goroutines"`
}

// Emitter is the journal hook: satisfied by *journal.Writer, declared
// here so obs does not depend on its own subpackage.
type Emitter interface {
	Emit(typ string, payload any)
}

// incidentEvent is the journal payload: the incident minus its bulky
// captures (the full report stays readable at /debug/incidents/{id}).
type incidentEvent struct {
	ID           string `json:"id"`
	Detector     string `json:"detector"`
	Summary      string `json:"summary"`
	QueryID      string `json:"query_id,omitempty"`
	FlightEvents int    `json:"flight_events"`
}

// IncidentStore is a bounded ring of incidents. The zero value is not
// usable; use NewIncidentStore. A nil store's methods are no-ops.
type IncidentStore struct {
	// Capture sources, defaulting to the process-wide instances; tests
	// substitute private ones.
	Flight   *FlightRecorder
	Queries  *QueryRegistry
	Registry *Registry
	// FlightTail bounds the flight slice captured per incident
	// (default 256 events).
	FlightTail int

	mu      sync.Mutex
	seq     int
	ring    ring[*Incident]
	journal Emitter
	planner func(kind, text string) string
	now     func() time.Time
}

// NewIncidentStore returns a store retaining the last max incidents.
func NewIncidentStore(max int) *IncidentStore {
	return &IncidentStore{
		Flight: DefaultFlight, Queries: Queries, Registry: Default,
		FlightTail: 256, ring: newRing[*Incident](max), now: time.Now,
	}
}

// incidentCapacity is how many incidents DefaultIncidents retains.
const incidentCapacity = 32

// crashDumpsKept bounds the crash-*.json files WriteCrashDump leaves in
// its directory. It is the incident store's own capacity: a server
// keeps as many crashes on disk as it keeps incidents in memory.
const crashDumpsKept = incidentCapacity

// DefaultIncidents is the process-wide store the server serves and the
// watchdog runner opens incidents in.
var DefaultIncidents = NewIncidentStore(incidentCapacity)

var incidentsOpened = NewCounterVec("probkb_incidents_total",
	"Incidents opened by watchdog detectors, by detector.", "detector")

// SetJournal attaches the run journal incidents are emitted into
// (typically the live expansion's *journal.Writer); nil detaches.
func (s *IncidentStore) SetJournal(e Emitter) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.journal = e
	s.mu.Unlock()
}

// SetPlanner attaches the plan-capture hook: given the offending
// query's kind and text, return its analyzed plan ("" when the text
// does not re-plan). The server wires this to EXPLAIN.
func (s *IncidentStore) SetPlanner(p func(kind, text string) string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.planner = p
	s.mu.Unlock()
}

// setClock replaces the store's time source (tests only).
func (s *IncidentStore) setClock(now func() time.Time) { s.now = now }

// Open captures an incident for the finding and returns it. Safe to
// call from the watchdog runner goroutine.
func (s *IncidentStore) Open(f Finding) *Incident {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.seq++
	inc := &Incident{
		ID:       "i" + strconv.Itoa(s.seq),
		Time:     s.now(),
		Detector: f.Detector,
		Summary:  f.Summary,
		QueryID:  f.QueryID, QueryKind: f.QueryKind, QueryText: f.QueryText,
	}
	jr, planner := s.journal, s.planner
	s.mu.Unlock()

	// Capture outside the lock: dumps and snapshots are slow and must
	// not block List/Get.
	inc.Flight = s.Flight.Slice(s.FlightTail)
	inc.Timeline = Timeline(inc.Flight)
	inc.Queries = s.Queries.Snapshot(inc.Time)
	inc.Metrics = s.Registry.Snapshot()
	inc.Goroutines = goroutineDump()
	if planner != nil && f.QueryText != "" {
		inc.Plan = planner(f.QueryKind, f.QueryText)
	}

	s.mu.Lock()
	s.ring.push(inc)
	s.mu.Unlock()

	incidentsOpened.With(f.Detector).Inc()
	if jr != nil {
		jr.Emit("incident", incidentEvent{
			ID: inc.ID, Detector: inc.Detector, Summary: inc.Summary,
			QueryID: inc.QueryID, FlightEvents: len(inc.Flight),
		})
	}
	return inc
}

// List returns the retained incidents, newest first.
func (s *IncidentStore) List() []*Incident {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.newestFirst()
}

// Get returns the incident with the given ID, or nil.
func (s *IncidentStore) Get(id string) *Incident {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, inc := range s.ring.buf {
		if inc.ID == id {
			return inc
		}
	}
	return nil
}

// Reset drops all incidents (tests).
func (s *IncidentStore) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ring.reset()
	s.seq = 0
	s.mu.Unlock()
}

func goroutineDump() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}

// WriteCrashDump captures the process state the way Open does — flight
// timeline, active queries, metrics, goroutine dump — plus every
// retained incident, and writes it as one JSON file under dir. Called
// on panic and SIGQUIT so post-mortems survive the process; the path
// written is returned. The file never replaces an earlier dump, and
// only the newest crashDumpsKept crash-*.json files stay in dir.
func (s *IncidentStore) WriteCrashDump(dir, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	now := time.Now
	if s != nil && s.now != nil {
		now = s.now
	}
	flight := DefaultFlight
	queries := Queries
	registry := Default
	if s != nil {
		flight, queries, registry = s.Flight, s.Queries, s.Registry
	}
	ts := now()
	dump := struct {
		Time      time.Time          `json:"time"`
		Reason    string             `json:"reason"`
		Timeline  string             `json:"timeline"`
		Queries   []QueryInfo        `json:"queries,omitempty"`
		Metrics   map[string]float64 `json:"metrics,omitempty"`
		Incidents []*Incident        `json:"incidents,omitempty"`
		Goroutine string             `json:"goroutines"`
	}{
		Time:      ts,
		Reason:    reason,
		Timeline:  Timeline(flight.Events()),
		Queries:   queries.Snapshot(ts),
		Metrics:   registry.Snapshot(),
		Incidents: s.List(),
		Goroutine: goroutineDump(),
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return "", err
	}
	// Names sort oldest first: the second, then a sequence number that
	// tells apart the dumps of one second (a server crash-looping under
	// a supervisor writes several).
	var path string
	for seq := 0; ; seq++ {
		path = filepath.Join(dir, fmt.Sprintf("crash-%s-%03d-%s.json",
			ts.Format("20060102-150405"), seq, sanitizeReason(reason)))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return "", err
		}
		_, err = f.Write(data)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return "", err
		}
		break
	}
	return path, pruneCrashDumps(dir)
}

// pruneCrashDumps deletes all but the newest crashDumpsKept crash dumps
// in dir.
func pruneCrashDumps(dir string) error {
	old, err := filepath.Glob(filepath.Join(dir, "crash-*.json"))
	if err != nil || len(old) <= crashDumpsKept {
		return err
	}
	sort.Strings(old)
	for _, p := range old[:len(old)-crashDumpsKept] {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	return nil
}

func sanitizeReason(r string) string {
	out := []rune(r)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-':
		default:
			out[i] = '_'
		}
	}
	if len(out) > 32 {
		out = out[:32]
	}
	return string(out)
}

// SummaryLine renders the one-line listing view `probkb incidents` and
// /debug/incidents share conceptually: id, age, detector, summary.
func (inc *Incident) SummaryLine(now time.Time) string {
	age := now.Sub(inc.Time).Round(time.Second)
	return fmt.Sprintf("%-5s %8s ago  %-16s %s", inc.ID, age, inc.Detector, inc.Summary)
}
