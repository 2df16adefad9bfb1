package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"probkb/internal/obs"
)

// TestIncidentStuckQueryEndToEnd is the tentpole's acceptance path: a
// long-running /admin/expand becomes a stuck query, a watchdog tick
// (with an injected clock — nothing here sleeps its way past a
// threshold) opens an incident, and GET /debug/incidents/{id} serves
// the full report with its goroutine dump and flight-recorder
// timeline. The query is never cancelled by the detector — watchdogs
// observe, they don't kill.
func TestIncidentStuckQueryEndToEnd(t *testing.T) {
	obs.DefaultIncidents.Reset()
	t.Cleanup(obs.DefaultIncidents.Reset)
	srv := testServer(t)

	type result struct {
		code int
		out  map[string]string
	}
	done := make(chan result, 1)
	go func() {
		var out map[string]string
		// Enough Gibbs sweeps to hold the query in flight until the test
		// cancels it during cleanup.
		code := postJSON(t, srv.URL+"/admin/expand",
			`{"inference": true, "burnin": 0, "samples": 50000000}`, &out)
		done <- result{code, out}
	}()

	// Poll the registry until the expand request is running.
	var id string
	deadline := time.Now().Add(10 * time.Second)
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("expand request never appeared in /debug/queries")
		}
		var list struct {
			Queries []struct {
				ID    string `json:"id"`
				Kind  string `json:"kind"`
				Phase string `json:"phase"`
			} `json:"queries"`
		}
		if code := getJSON(t, srv.URL+"/debug/queries", &list); code != 200 {
			t.Fatalf("queries status %d", code)
		}
		for _, q := range list.Queries {
			if q.Kind == "expand" && (q.Phase == "ground" || q.Phase == "infer") {
				id = q.ID
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The watchdog, wired exactly as probkb-server wires it, evaluated
	// with a clock one hour ahead: the expand query is now "stuck".
	runner := obs.NewRunner(time.Second)
	runner.OnFire = func(f obs.Finding) { obs.DefaultIncidents.Open(f) }
	runner.Add(&obs.StuckQueryDetector{Registry: obs.Queries, MaxElapsed: 30 * time.Second}, obs.Hysteresis{FireAfter: 2})
	future := time.Now().Add(time.Hour)
	runner.Tick(future)
	runner.Tick(future.Add(time.Second))

	// The incident is listed...
	var list struct {
		Incidents []struct {
			ID       string `json:"id"`
			Detector string `json:"detector"`
			QueryID  string `json:"query_id"`
		} `json:"incidents"`
	}
	if code := getJSON(t, srv.URL+"/debug/incidents", &list); code != 200 {
		t.Fatalf("incidents status %d", code)
	}
	if len(list.Incidents) != 1 {
		t.Fatalf("incident count %d, want 1", len(list.Incidents))
	}
	got := list.Incidents[0]
	if got.Detector != "stuck_query" || got.QueryID != id {
		t.Fatalf("incident summary: %+v (stuck query was %s)", got, id)
	}

	// ...and the full report carries the captures.
	var inc struct {
		ID         string             `json:"id"`
		Summary    string             `json:"summary"`
		Timeline   string             `json:"timeline"`
		Goroutines string             `json:"goroutines"`
		Metrics    map[string]float64 `json:"metrics"`
		Queries    []struct {
			ID string `json:"id"`
		} `json:"queries"`
		Flight []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"flight"`
	}
	if code := getJSON(t, srv.URL+"/debug/incidents/"+got.ID, &inc); code != 200 {
		t.Fatalf("incident detail status %d", code)
	}
	if !strings.Contains(inc.Summary, id) {
		t.Errorf("summary %q does not name query %s", inc.Summary, id)
	}
	if len(inc.Flight) == 0 || inc.Timeline == "" {
		t.Error("incident has no flight-recorder slice")
	}
	// The timeline must show the activity leading up to the anomaly: the
	// stuck expansion's Gibbs checkpoints flooding past (journal events),
	// and at least one correlated event kind per source.
	if !strings.Contains(inc.Timeline, "gibbs_checkpoint") {
		t.Errorf("timeline does not show the stuck expansion's activity:\n%.2000s", inc.Timeline)
	}
	if !strings.Contains(inc.Goroutines, "goroutine") {
		t.Error("incident has no goroutine dump")
	}
	if inc.Metrics["probkb_queries_in_flight"] < 1 {
		t.Errorf("metrics snapshot in-flight gauge = %v", inc.Metrics["probkb_queries_in_flight"])
	}
	var sawStuck bool
	for _, q := range inc.Queries {
		sawStuck = sawStuck || q.ID == id
	}
	if !sawStuck {
		t.Errorf("incident's active-query capture misses %s: %+v", id, inc.Queries)
	}

	// The stuck query was observed, not killed: it is still in flight.
	var still struct {
		Queries []struct {
			ID string `json:"id"`
		} `json:"queries"`
	}
	if code := getJSON(t, srv.URL+"/debug/queries", &still); code != 200 {
		t.Fatalf("queries status %d", code)
	}
	var alive bool
	for _, q := range still.Queries {
		alive = alive || q.ID == id
	}
	if !alive {
		t.Fatal("watchdog killed the query it observed")
	}

	// Unknown incident ids are a 404.
	var errOut map[string]string
	if code := getJSON(t, srv.URL+"/debug/incidents/i999", &errOut); code != 404 {
		t.Fatalf("unknown incident status %d", code)
	}

	// Cleanup: cancel the expand and wait for it to unwind.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/debug/queries/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case r := <-done:
		if r.code != statusClientClosedRequest {
			t.Fatalf("cancelled expand status %d (%v)", r.code, r.out)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled expand did not unwind")
	}
}

// TestIncidentJournaled pins the journal schema hook: an incident
// opened while a server is attached lands in the served expansion's
// journal as an `incident` event, and Canonicalize drops it.
func TestIncidentJournaled(t *testing.T) {
	obs.DefaultIncidents.Reset()
	t.Cleanup(obs.DefaultIncidents.Reset)
	srv := testServer(t)

	obs.DefaultIncidents.Open(obs.Finding{Detector: "goroutine_leak", Summary: "synthetic"})

	var out struct {
		Events []struct {
			Type string `json:"type"`
		} `json:"events"`
	}
	if code := getJSON(t, srv.URL+"/debug/journal", &out); code != 200 {
		t.Fatalf("journal status %d", code)
	}
	var found bool
	for _, ev := range out.Events {
		found = found || ev.Type == "incident"
	}
	if !found {
		t.Fatal("incident event missing from the served journal")
	}
}

// TestDebugContentTypeAndRetryAfter pins the HTTP hygiene satellites:
// every /debug/* JSON endpoint (and /readyz) declares
// application/json, and the 503 "starting" readyz response carries a
// Retry-After hint.
func TestDebugContentTypeAndRetryAfter(t *testing.T) {
	obs.DefaultIncidents.Reset()
	t.Cleanup(obs.DefaultIncidents.Reset)
	inc := obs.DefaultIncidents.Open(obs.Finding{Detector: "goroutine_leak", Summary: "synthetic"})
	srv := testServer(t)

	for _, path := range []string{
		"/readyz", "/stats",
		"/debug/queries", "/debug/slow", "/debug/journal", "/debug/profile",
		"/debug/incidents", "/debug/incidents/" + inc.ID,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q", path, ct)
		}
	}

	// A pending server's readyz 503 tells clients when to retry.
	psrv := newHTTPServer(t, NewPending())
	resp, err := http.Get(psrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("pending readyz status %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "5" {
		t.Errorf("pending readyz Retry-After = %q", ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("pending readyz Content-Type = %q", ct)
	}
}
