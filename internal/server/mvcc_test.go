package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"probkb"
)

// This file is the serving tier's MVCC acceptance battery: admission
// control sheds load without touching health/debug endpoints, POST
// /facts publishes a new generation without disturbing in-flight
// readers, POST /query/batch answers from one pinned snapshot, and a
// cancelled rebuild never advances the epoch.

// mvccServer is like testServer but also returns the Server value, so
// tests can reach the admission internals and epoch manager directly.
func mvccServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	k := testKB()
	exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode, RunInference: false, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(k, exp)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

// statsEpoch reads the generation counter and fact count out of /stats.
func statsEpoch(t *testing.T, srv *httptest.Server) (gen uint64, facts int) {
	t.Helper()
	var out struct {
		KB struct {
			Facts int `json:"Facts"`
		} `json:"kb"`
		Epoch struct {
			Generation uint64 `json:"generation"`
		} `json:"epoch"`
	}
	if code := getJSON(t, srv.URL+"/stats", &out); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	return out.Epoch.Generation, out.KB.Facts
}

// TestAdmissionControl pins the load-shedding contract: with the cap
// reached, further data requests answer 429 with a Retry-After header
// and bump probkb_http_rejected_total, while health and debug
// endpoints keep answering; releasing the slot (or lifting the cap at
// runtime via SetMaxInFlight) restores service.
func TestAdmissionControl(t *testing.T) {
	s, srv := mvccServer(t)
	s.SetMaxInFlight(1)

	// Occupy the single slot deterministically: drive the admit wrapper
	// directly with a handler that parks until released.
	release := make(chan struct{})
	parked := s.admit("/query", func(w http.ResponseWriter, r *http.Request) { <-release })
	go parked(httptest.NewRecorder(), httptest.NewRequest("GET", "/query", nil))
	deadline := time.Now().Add(5 * time.Second)
	for s.admitted.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Data requests shed with 429 + Retry-After.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var rej map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated /stats status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(rej["error"], "capacity") {
		t.Fatalf("shed error = %q", rej["error"])
	}

	// Health, metrics, and the query registry are exempt — exactly what
	// an operator needs while the server sheds.
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/queries"} {
		r2, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != 200 {
			t.Fatalf("saturated %s status %d, want 200", path, r2.StatusCode)
		}
	}

	// The rejection counter moved and is exposed for scraping.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(mbody)
	if !strings.Contains(metrics, "probkb_http_rejected_total") {
		t.Fatal("/metrics does not expose probkb_http_rejected_total")
	}
	rejectedNonZero := false
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "probkb_http_rejected_total") && !strings.HasSuffix(line, " 0") {
			rejectedNonZero = true
		}
	}
	if !rejectedNonZero {
		t.Fatal("probkb_http_rejected_total did not move after a shed request")
	}

	// Release the slot: service resumes under the same cap.
	close(release)
	for s.admitted.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never drained")
		}
		time.Sleep(time.Millisecond)
	}
	var out map[string]any
	if code := getJSON(t, srv.URL+"/stats", &out); code != 200 {
		t.Fatalf("drained /stats status %d, want 200", code)
	}

	// Runtime reconfiguration: lifting the cap disables shedding.
	s.SetMaxInFlight(0)
	if code := getJSON(t, srv.URL+"/stats", &out); code != 200 {
		t.Fatalf("uncapped /stats status %d, want 200", code)
	}
}

// TestFactsPostPublishesNewGeneration: streaming facts in via POST
// /facts bumps the epoch generation, the new facts answer immediately,
// and concurrent readers racing the publish only ever observe a whole
// generation — (old gen, old closure size) or (new gen, new closure
// size), never a mixture of the two.
func TestFactsPostPublishesNewGeneration(t *testing.T) {
	_, srv := mvccServer(t)

	type genObs struct {
		Gen   uint64
		Total int
	}
	readStats := func() (genObs, error) {
		var out struct {
			Expansion struct {
				TotalFacts int
			} `json:"expansion"`
			Epoch struct {
				Generation uint64 `json:"generation"`
			} `json:"epoch"`
		}
		resp, err := http.Get(srv.URL + "/stats")
		if err != nil {
			return genObs{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			return genObs{}, fmt.Errorf("stats status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return genObs{}, err
		}
		return genObs{out.Epoch.Generation, out.Expansion.TotalFacts}, nil
	}

	p0, err := readStats()
	if err != nil {
		t.Fatal(err)
	}

	// Before the extend the streamed entity is unknown: the query
	// answers (no 500) with a null marginal. Note the expansion
	// generation that served it — the expansion counter is process-
	// global, so only before/after comparisons are meaningful.
	var preM marginalJSON
	if code := getJSON(t, srv.URL+"/query?atom=live_in(Zweig,+Vienna)&burnin=10&samples=20", &preM); code != 200 {
		t.Fatalf("query before extend: %d", code)
	}
	if preM.Marginal != nil {
		t.Fatalf("unknown atom answered marginal %v before the extend", *preM.Marginal)
	}

	// Readers race the extend+publish, recording every (generation,
	// closure size) pair they see; the pairs are validated once the
	// post-publish state is known.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var obsMu sync.Mutex
	observed := map[genObs]bool{}
	errc := make(chan error, 1)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, err := readStats()
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				obsMu.Lock()
				observed[p] = true
				obsMu.Unlock()
			}
		}()
	}

	var out struct {
		Added      int    `json:"added"`
		Generation uint64 `json:"generation"`
	}
	body := `{"facts": [
		{"rel": "born_in", "x": "Zweig", "xClass": "Writer", "y": "Vienna", "yClass": "Place", "probability": 0.8},
		{"rel": "born_in", "x": "Mahler", "xClass": "Writer", "y": "Vienna", "yClass": "Place", "probability": 0.85}
	]}`
	if code := postJSON(t, srv.URL+"/facts", body, &out); code != 200 {
		t.Fatalf("POST /facts status %d", code)
	}
	p1, err := readStats()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	select {
	case rerr := <-errc:
		t.Fatal(rerr)
	default:
	}
	for p := range observed {
		if p != p0 && p != p1 {
			t.Fatalf("reader observed torn state %+v, want %+v or %+v", p, p0, p1)
		}
	}

	if out.Added != 2 {
		t.Fatalf("added = %d, want 2", out.Added)
	}
	if out.Generation != p0.Gen+1 {
		t.Fatalf("generation = %d, want %d", out.Generation, p0.Gen+1)
	}
	if p1.Gen != p0.Gen+1 || p1.Total <= p0.Total {
		t.Fatalf("stats after extend: %+v, want generation %d with a larger closure than %d", p1, p0.Gen+1, p0.Total)
	}

	// The streamed fact is queryable on the new generation: the atom
	// that had no marginal now derives one (born_in(Zweig, Vienna) feeds
	// the live_in rule), and the answer carries a fresher expansion
	// generation than the pre-extend answer did.
	var m marginalJSON
	if code := getJSON(t, srv.URL+"/query?atom=live_in(Zweig,+Vienna)&burnin=10&samples=20", &m); code != 200 {
		t.Fatalf("query on extended generation: %d", code)
	}
	if m.Generation <= preM.Generation {
		t.Fatalf("post-extend marginal served from generation %d, want newer than %d", m.Generation, preM.Generation)
	}
	if m.Marginal == nil || !m.Found {
		t.Fatalf("streamed fact not queryable after the extend: %+v", m)
	}
}

// TestFactsPostValidation: malformed streams never reach the writer.
func TestFactsPostValidation(t *testing.T) {
	_, srv := mvccServer(t)
	g0, _ := statsEpoch(t, srv)
	for _, tc := range []struct{ name, body string }{
		{"empty", `{"facts": []}`},
		{"missing names", `{"facts": [{"rel": "born_in", "probability": 0.5}]}`},
		{"bad probability", `{"facts": [{"rel": "r", "x": "a", "xClass": "C", "y": "b", "yClass": "C", "probability": 1.5}]}`},
		{"not json", `{"facts": [`},
	} {
		var out map[string]string
		if code := postJSON(t, srv.URL+"/facts", tc.body, &out); code != 400 {
			t.Errorf("%s: status %d, want 400 (%v)", tc.name, code, out)
		}
	}
	if g, _ := statsEpoch(t, srv); g != g0 {
		t.Fatalf("rejected posts advanced the generation from %d to %d", g0, g)
	}
}

// TestQueryBatch answers several atoms from one pinned generation.
func TestQueryBatch(t *testing.T) {
	_, srv := mvccServer(t)
	var out struct {
		Generation uint64 `json:"generation"`
		Results    []struct {
			Atom  string `json:"atom"`
			Error string `json:"error,omitempty"`
		} `json:"results"`
	}
	body := `{"atoms": ["live_in(Freud, Vienna)", "live_in(Ruth_Gruber, Brooklyn)", "born_in(Freud, Vienna)"], "burnin": 10, "samples": 20}`
	if code := postJSON(t, srv.URL+"/query/batch", body, &out); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	if out.Generation == 0 {
		t.Fatal("batch response missing the serving generation")
	}
	if len(out.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(out.Results))
	}
	for i, res := range out.Results {
		if res.Error != "" {
			t.Errorf("results[%d] (%s): %s", i, res.Atom, res.Error)
		}
	}

	for _, tc := range []struct{ name, body string }{
		{"empty", `{"atoms": []}`},
		{"unparsable atom", `{"atoms": ["not an atom"]}`},
		{"oversize", fmt.Sprintf(`{"atoms": [%s"live_in(a, b)"]}`, strings.Repeat(`"live_in(a, b)", `, maxBatchAtoms))},
	} {
		var errOut map[string]string
		if code := postJSON(t, srv.URL+"/query/batch", tc.body, &errOut); code != 400 {
			t.Errorf("%s: status %d, want 400 (%v)", tc.name, code, errOut)
		}
	}
}

// TestCancelledExpandDoesNotPublish is the server half of the MVCC
// publication contract: a rebuild killed via DELETE /debug/queries/{id}
// unwinds with 499 and the epoch generation never advances — readers
// stay on the generation they were on.
func TestCancelledExpandDoesNotPublish(t *testing.T) {
	_, srv := mvccServer(t)
	g0, f0 := statsEpoch(t, srv)

	done := make(chan int, 1)
	go func() {
		var out map[string]string
		done <- postJSON(t, srv.URL+"/admin/expand",
			`{"inference": true, "burnin": 0, "samples": 50000000}`, &out)
	}()

	id := waitForActive(t, srv, "expand")
	cancelActive(t, srv, id)

	select {
	case code := <-done:
		if code != statusClientClosedRequest {
			t.Fatalf("cancelled expand status %d, want 499", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled expand did not unwind")
	}

	g1, f1 := statsEpoch(t, srv)
	if g1 != g0 || f1 != f0 {
		t.Fatalf("cancelled expand published: gen %d->%d facts %d->%d", g0, g1, f0, f1)
	}
	var m marginalJSON
	if code := getJSON(t, srv.URL+"/query?atom=live_in(Freud,+Vienna)&burnin=10&samples=20", &m); code != 200 {
		t.Fatalf("query after cancelled expand: %d", code)
	}
}

// TestQueryCancelPinnedReader: DELETE /debug/queries/{id} on a pinned
// point-query reader unwinds it with 499 and the query-local
// PartialError phase, and the pin is released (a following write can
// still publish).
func TestQueryCancelPinnedReader(t *testing.T) {
	s, srv := mvccServer(t)

	type result struct {
		code int
		out  map[string]string
	}
	done := make(chan result, 1)
	go func() {
		var out map[string]string
		code := getJSON(t, srv.URL+"/query?atom="+giantAtom+"&burnin=0&samples=50000000&nocache=1", &out)
		done <- result{code, out}
	}()

	id := waitForActive(t, srv, "query")
	cancelActive(t, srv, id)

	select {
	case r := <-done:
		if r.code != statusClientClosedRequest {
			t.Fatalf("cancelled query status %d (%v), want 499", r.code, r.out)
		}
		if r.out["phase"] != "query-local" {
			t.Fatalf("cancelled query phase %q, want query-local", r.out["phase"])
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query did not unwind")
	}

	// The reader's pin drained; the epoch can still turn over.
	deadline := time.Now().Add(5 * time.Second)
	for s.snaps.Pins() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d pins leaked after the cancelled reader unwound", s.snaps.Pins())
		}
		time.Sleep(time.Millisecond)
	}
	var out map[string]any
	body := `{"facts": [{"rel": "born_in", "x": "Zweig", "xClass": "Writer", "y": "Vienna", "yClass": "Place", "probability": 0.8}]}`
	if code := postJSON(t, srv.URL+"/facts", body, &out); code != 200 {
		t.Fatalf("POST /facts after cancelled reader: %d", code)
	}
}

// waitForActive polls /debug/queries until a query of the given kind is
// past registration, returning its id.
func waitForActive(t *testing.T, srv *httptest.Server, kind string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no active %q ever appeared in /debug/queries", kind)
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
			if q.Kind == kind && q.Phase != "" && q.Phase != "start" {
				return q.ID
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cancelActive issues DELETE /debug/queries/{id} and asserts 200.
func cancelActive(t *testing.T, srv *httptest.Server, id string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/debug/queries/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
}
