package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testIncidentStore builds a store over private sources so tests never
// race with other packages using the process-wide defaults.
func testIncidentStore(max int) (*IncidentStore, *FlightRecorder, *QueryRegistry) {
	flight := NewFlightRecorder(64)
	flight.setClock(fakeClock())
	queries := &QueryRegistry{}
	s := NewIncidentStore(max)
	s.Flight = flight
	s.Queries = queries
	s.Registry = NewRegistry()
	s.setClock(fakeClock())
	return s, flight, queries
}

type captureEmitter struct {
	types    []string
	payloads []any
}

func (c *captureEmitter) Emit(typ string, payload any) {
	c.types = append(c.types, typ)
	c.payloads = append(c.payloads, payload)
}

func TestIncidentOpenCapturesContext(t *testing.T) {
	s, flight, queries := testIncidentStore(8)
	jr := &captureEmitter{}
	s.SetJournal(jr)
	s.SetPlanner(func(kind, text string) string {
		return "-> Scan " + text + " [" + kind + "]"
	})

	flight.Note("span", "ground", "")
	flight.Note("journal", "iteration", "")
	_, q := queries.Begin(context.Background(), "sql", "SELECT T.R FROM T")
	defer queries.Finish(q)
	only[Counter](s.Registry.declare(kindCounter, "probkb_test_total", "test", nil, nil)).Inc()

	inc := s.Open(Finding{
		Detector: "stuck_query", Summary: "query q1 stuck",
		QueryID: q.ID(), QueryKind: "sql", QueryText: "SELECT T.R FROM T",
	})
	if inc.ID != "i1" || inc.Detector != "stuck_query" {
		t.Fatalf("incident header: %+v", inc)
	}
	if len(inc.Flight) == 0 || !strings.Contains(inc.Timeline, "ground") {
		t.Fatalf("flight slice not captured: %d events, timeline %q", len(inc.Flight), inc.Timeline)
	}
	if len(inc.Queries) != 1 || inc.Queries[0].ID != q.ID() {
		t.Fatalf("active queries not captured: %+v", inc.Queries)
	}
	if inc.Metrics["probkb_test_total"] != 1 {
		t.Fatalf("metrics snapshot missing: %v", inc.Metrics["probkb_test_total"])
	}
	if !strings.Contains(inc.Goroutines, "goroutine") {
		t.Fatal("goroutine dump missing")
	}
	if !strings.Contains(inc.Plan, "SELECT T.R FROM T") || !strings.Contains(inc.Plan, "[sql]") {
		t.Fatalf("planner not invoked: %q", inc.Plan)
	}
	if len(jr.types) != 1 || jr.types[0] != "incident" {
		t.Fatalf("journal emissions: %v", jr.types)
	}
	data, _ := json.Marshal(jr.payloads[0])
	for _, want := range []string{`"id":"i1"`, `"detector":"stuck_query"`, `"flight_events":`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("journal payload missing %s: %s", want, data)
		}
	}
}

func TestIncidentStoreBoundAndOrder(t *testing.T) {
	s, _, _ := testIncidentStore(3)
	for i := 0; i < 5; i++ {
		s.Open(Finding{Detector: "goroutine_leak", Summary: "n"})
	}
	list := s.List()
	if len(list) != 3 {
		t.Fatalf("retained %d incidents, want 3", len(list))
	}
	// Newest first: i5, i4, i3.
	for i, want := range []string{"i5", "i4", "i3"} {
		if list[i].ID != want {
			t.Errorf("list[%d] = %s, want %s", i, list[i].ID, want)
		}
	}
	if s.Get("i1") != nil {
		t.Error("evicted incident still retrievable")
	}
	if got := s.Get("i4"); got == nil || got.ID != "i4" {
		t.Errorf("Get(i4) = %v", got)
	}
	if s.Get("nope") != nil {
		t.Error("unknown id returned an incident")
	}
}

func TestIncidentNilStore(t *testing.T) {
	var s *IncidentStore
	if s.Open(Finding{}) != nil || s.List() != nil || s.Get("i1") != nil {
		t.Fatal("nil store misbehaves")
	}
	s.SetJournal(nil)
	s.SetPlanner(nil)
	s.Reset()
}

func TestWriteCrashDump(t *testing.T) {
	s, flight, _ := testIncidentStore(4)
	flight.Note("log", "INFO", "before the crash")
	s.Open(Finding{Detector: "wal_growth", Summary: "wal runaway"})

	dir := filepath.Join(t.TempDir(), "incidents")
	path, err := s.WriteCrashDump(dir, "SIGQUIT")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.Contains(filepath.Base(path), "SIGQUIT") {
		t.Fatalf("dump path %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Reason    string `json:"reason"`
		Timeline  string `json:"timeline"`
		Incidents []struct {
			ID string `json:"id"`
		} `json:"incidents"`
		Goroutine string `json:"goroutines"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if dump.Reason != "SIGQUIT" {
		t.Errorf("reason %q", dump.Reason)
	}
	if !strings.Contains(dump.Timeline, "before the crash") {
		t.Error("dump timeline missing flight events")
	}
	if len(dump.Incidents) != 1 || dump.Incidents[0].ID != "i1" {
		t.Errorf("dump incidents: %+v", dump.Incidents)
	}
	if !strings.Contains(dump.Goroutine, "goroutine") {
		t.Error("dump goroutine stack missing")
	}
}

// TestCrashDumpsNeverOverwrite: two crashes with one reason in one
// second leave two dumps.
func TestCrashDumpsNeverOverwrite(t *testing.T) {
	s, _, _ := testIncidentStore(4)
	s.setClock(func() time.Time { return t0 })
	dir := t.TempDir()
	a, errA := s.WriteCrashDump(dir, "panic")
	b, errB := s.WriteCrashDump(dir, "panic")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a == b {
		t.Fatalf("both dumps written to %s", a)
	}
	for _, p := range []string{a, b} {
		if _, err := os.Stat(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashDumpsKeepNewest: 40 crashes leave the newest 32 dumps.
func TestCrashDumpsKeepNewest(t *testing.T) {
	s, _, _ := testIncidentStore(4)
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 40; i++ {
		p, err := s.WriteCrashDump(dir, "SIGQUIT")
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	left, err := filepath.Glob(filepath.Join(dir, "crash-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 32 {
		t.Fatalf("%d dumps left, want 32", len(left))
	}
	for i, p := range paths {
		_, err := os.Stat(p)
		if kept := err == nil; kept != (i >= 8) {
			t.Errorf("dump %d (%s): kept=%v", i, filepath.Base(p), kept)
		}
	}
}

// TestRunnerOpensIncidents wires a Runner to an IncidentStore the way
// probkb-server does and drives a stuck query through: the detector
// fire must land as a captured incident.
func TestRunnerOpensIncidents(t *testing.T) {
	s, _, queries := testIncidentStore(8)
	r := NewRunner(time.Second)
	r.OnFire = func(f Finding) { s.Open(f) }
	r.Add(&StuckQueryDetector{Registry: queries, MaxElapsed: time.Minute}, Hysteresis{FireAfter: 2})

	_, q := queries.Begin(context.Background(), "expand", "POST /admin/expand")
	defer queries.Finish(q)
	stuck := q.Start().Add(2 * time.Minute)
	r.Tick(stuck)
	if len(s.List()) != 0 {
		t.Fatal("incident opened before hysteresis threshold")
	}
	r.Tick(stuck.Add(time.Second))
	list := s.List()
	if len(list) != 1 {
		t.Fatalf("incidents after second bad tick: %d", len(list))
	}
	inc := list[0]
	if inc.Detector != "stuck_query" || inc.QueryID != q.ID() {
		t.Fatalf("incident: %+v", inc)
	}
	if len(inc.Queries) == 0 || inc.Queries[0].Kind != "expand" {
		t.Fatalf("incident active queries: %+v", inc.Queries)
	}
}

func TestIncidentSummaryLine(t *testing.T) {
	inc := &Incident{ID: "i2", Time: t0, Detector: "retry_storm", Summary: "50 retries"}
	line := inc.SummaryLine(t0.Add(90 * time.Second))
	for _, want := range []string{"i2", "1m30s", "retry_storm", "50 retries"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary line missing %q: %q", want, line)
		}
	}
}
