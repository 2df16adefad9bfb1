package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"probkb"
	"probkb/internal/obs"
)

// testKB is the KB the test servers serve: two writers whose atoms form
// two-variable components, which inference enumerates, and a third born
// in four places and four cities, whose born_in, live_in and located_in
// atoms form one component of 28 — above the enumeration bound, so an
// expansion with inference, and a cold /query on giantAtom, run a Gibbs
// chain (what the cancellation, watchdog and journal tests hold on to).
func testKB() *probkb.KB {
	k := probkb.New()
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	k.AddFact("born_in", "Freud", "Writer", "Vienna", "Place", 0.9)
	k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
	for i := 0; i < 4; i++ {
		k.AddFact("born_in", "Grace_Paley", "Writer", fmt.Sprintf("Borough_%d", i), "Place", 0.6+0.05*float64(i))
		k.AddFact("born_in", "Grace_Paley", "Writer", fmt.Sprintf("Town_%d", i), "City", 0.9-0.05*float64(i))
	}
	k.MustAddRule("0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x:Place), born_in(z, y:City)")
	return k
}

// giantAtom is an atom of testKB's 28-variable component, URL-encoded.
const giantAtom = "located_in(Borough_1,+Town_2)"

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	k := testKB()
	exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode, RunInference: true, GibbsBurnin: 20, GibbsSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	return newHTTPServer(t, New(k, exp))
}

// newHTTPServer is httptest.NewServer closed when t ends, with an error
// log that fails t on a handler panic: net/http recovers one and only
// logs "http: panic serving ...", which would otherwise pass unseen.
func newHTTPServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ErrorLog = log.New(panicLog{t}, "", 0)
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

// panicLog is newHTTPServer's error log.
type panicLog struct{ t *testing.T }

func (l panicLog) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("panic serving")) {
		l.t.Errorf("test server: %s", p)
	} else {
		l.t.Logf("test server: %s", p)
	}
	return len(p), nil
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	var out map[string]string
	if code := getJSON(t, srv.URL+"/healthz", &out); code != 200 || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, out)
	}
}

func TestStats(t *testing.T) {
	srv := testServer(t)
	var out struct {
		KB struct {
			Facts int `json:"Facts"`
		} `json:"kb"`
		Expansion struct {
			InferredFacts int `json:"InferredFacts"`
		} `json:"expansion"`
	}
	if code := getJSON(t, srv.URL+"/stats", &out); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if out.KB.Facts != 10 || out.Expansion.InferredFacts != 22 {
		t.Fatalf("stats payload: %+v", out)
	}
}

func TestFactsFilters(t *testing.T) {
	srv := testServer(t)
	var out struct {
		Total int                       `json:"total"`
		Facts []struct{ Rel, X string } `json:"facts"`
	}
	if code := getJSON(t, srv.URL+"/facts?rel=live_in", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Total != 6 {
		t.Fatalf("live_in total = %d", out.Total)
	}
	if code := getJSON(t, srv.URL+"/facts?inferred=true&x=Freud", &out); code != 200 || out.Total != 1 {
		t.Fatalf("filtered total = %d", out.Total)
	}
	if code := getJSON(t, srv.URL+"/facts?limit=1", &out); code != 200 || len(out.Facts) != 1 || out.Total != 32 {
		t.Fatalf("limit: total=%d len=%d", out.Total, len(out.Facts))
	}
	// Bad parameters.
	var errOut map[string]string
	if code := getJSON(t, srv.URL+"/facts?limit=x", &errOut); code != 400 {
		t.Fatalf("bad limit status %d", code)
	}
	if code := getJSON(t, srv.URL+"/facts?inferred=maybe", &errOut); code != 400 {
		t.Fatalf("bad inferred status %d", code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/explain?rel=live_in&x=Freud&y=Vienna")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(sb.String(), "born_in(Freud:Writer, Vienna:Place)") {
		t.Fatalf("explain body:\n%s", sb.String())
	}

	var errOut map[string]string
	if code := getJSON(t, srv.URL+"/explain?rel=live_in&x=Nobody&y=Nowhere", &errOut); code != 404 {
		t.Fatalf("missing fact status %d", code)
	}
	if code := getJSON(t, srv.URL+"/explain", &errOut); code != 400 {
		t.Fatalf("missing params status %d", code)
	}
}

func TestFactsWithoutInference(t *testing.T) {
	// Inferred facts have NaN probabilities when inference is skipped;
	// the API must render them as JSON null, not fail to encode
	// (regression: empty 200 responses).
	k := probkb.New()
	k.AddFact("born_in", "RG", "Writer", "Brooklyn", "Place", 0.93)
	k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
	exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode, RunInference: false})
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(t, New(k, exp))
	defer srv.Close()

	var out struct {
		Facts []struct {
			Probability *float64 `json:"probability"`
			Inferred    bool     `json:"inferred"`
		} `json:"facts"`
	}
	if code := getJSON(t, srv.URL+"/facts?inferred=true", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Facts) != 1 || out.Facts[0].Probability != nil {
		t.Fatalf("payload: %+v", out)
	}
	// Observed facts keep their probability.
	if code := getJSON(t, srv.URL+"/facts?inferred=false", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Facts) != 1 || out.Facts[0].Probability == nil || *out.Facts[0].Probability != 0.93 {
		t.Fatalf("payload: %+v", out)
	}
}

func TestSQLEndpoint(t *testing.T) {
	srv := testServer(t)
	var out struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	q := "/sql?q=" + strings.ReplaceAll("SELECT T.R, COUNT(*) AS n FROM T GROUP BY T.R", " ", "+")
	if code := getJSON(t, srv.URL+q, &out); code != 200 {
		t.Fatalf("sql status %d", code)
	}
	if len(out.Columns) != 2 || len(out.Rows) == 0 {
		t.Fatalf("sql payload: %+v", out)
	}
	var errOut map[string]string
	if code := getJSON(t, srv.URL+"/sql", &errOut); code != 400 {
		t.Fatalf("missing q status %d", code)
	}
	if code := getJSON(t, srv.URL+"/sql?q=NOT+SQL", &errOut); code != 400 {
		t.Fatalf("bad sql status %d", code)
	}
}

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestDistSQLEndpoint(t *testing.T) {
	srv := testServer(t)
	var out struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	// Happy path: the hash-distributed fact table joined against a
	// replicated dictionary is collocated and runs distributed.
	body := `{"q": "SELECT a.x, d.name FROM T a JOIN DE d ON a.x = d.id", "segments": 2}`
	if code := postJSON(t, srv.URL+"/sql", body, &out); code != 200 {
		t.Fatalf("distributed sql status %d", code)
	}
	if len(out.Columns) != 2 || len(out.Rows) == 0 {
		t.Fatalf("distributed sql payload: %+v", out)
	}
	var errOut map[string]string
	if code := postJSON(t, srv.URL+"/sql", `{"segments": 2}`, &errOut); code != 400 {
		t.Fatalf("missing q status %d", code)
	}
	if code := postJSON(t, srv.URL+"/sql", `not json`, &errOut); code != 400 {
		t.Fatalf("bad body status %d", code)
	}
}

// TestDistSQLNonCollocatedJoin is the regression for the crash this PR
// removes: a self-join of T on non-distribution columns is not
// collocated, and the old MPP layer panicked while *constructing* the
// plan — taking the whole server process down from a user query. Now
// the violation surfaces as an error response and the server keeps
// serving.
func TestDistSQLNonCollocatedJoin(t *testing.T) {
	srv := testServer(t)
	var errOut map[string]string
	body := `{"q": "SELECT a.I FROM T a JOIN T b ON a.x = b.y", "segments": 2}`
	code := postJSON(t, srv.URL+"/sql", body, &errOut)
	if code < 400 || code > 599 {
		t.Fatalf("non-collocated join status = %d, want an error status", code)
	}
	if !strings.Contains(errOut["error"], "not collocated") {
		t.Fatalf("error = %q, want a collocation violation", errOut["error"])
	}
	// The process must still be alive and serving.
	var health map[string]string
	if c := getJSON(t, srv.URL+"/healthz", &health); c != 200 || health["status"] != "ok" {
		t.Fatalf("server did not survive the bad query: %d %v", c, health)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	// Warm the request-path metrics with one ordinary request.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	// The test server ran a real expansion, so the exposition must carry
	// at least one counter, one gauge, and one histogram from it, plus
	// the HTTP middleware's own series.
	for _, want := range []string{
		"# TYPE probkb_expand_total counter",
		`probkb_expand_total{engine="ProbKB"}`,
		"# TYPE probkb_infer_samples_per_second gauge",
		"# TYPE probkb_expand_stage_seconds histogram",
		`probkb_expand_stage_seconds_bucket{stage="ground",le="+Inf"}`,
		`probkb_http_requests_total{code="200",path="/healthz"}`,
		`probkb_http_request_seconds_bucket{path="/healthz",le="+Inf"}`,
		"probkb_http_in_flight",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q", want)
		}
	}
}

func TestDebugTraces(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("traces status %d", resp.StatusCode)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	// The expansion behind the test server left an "expand" trace with
	// its stage children.
	body := sb.String()
	for _, want := range []string{"-> expand", "-> quality", "-> ground", "-> infer"} {
		if !strings.Contains(body, want) {
			t.Errorf("traces body missing %q in:\n%s", want, body)
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	obs.NewTextLogger(io.Discard, slog.LevelError+4) // silence the panic log
	defer obs.SetLogger(slog.Default())
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	srv := newHTTPServer(t, mux)
	defer srv.Close()

	beforeSnap := obs.Default.Snapshot()
	before := beforeSnap[`probkb_http_panics_total{path="/boom"}`]
	beforeLatency := beforeSnap[`probkb_http_request_seconds_count{path="/boom"}`]
	var out map[string]string
	if code := getJSON(t, srv.URL+"/boom", &out); code != 500 {
		t.Fatalf("panic status %d", code)
	}
	if !strings.Contains(out["error"], "kaboom") {
		t.Fatalf("panic body: %v", out)
	}
	afterSnap := obs.Default.Snapshot()
	after := afterSnap[`probkb_http_panics_total{path="/boom"}`]
	if after != before+1 {
		t.Fatalf("panics_total %v -> %v", before, after)
	}
	if afterSnap[`probkb_http_requests_total{code="500",path="/boom"}`] < 1 {
		t.Fatal("panic not counted as a 500 request")
	}
	// The panicked request must still land in the latency histogram: a
	// crash-looping endpoint should not vanish from latency dashboards.
	if afterSnap[`probkb_http_request_seconds_count{path="/boom"}`] != beforeLatency+1 {
		t.Fatal("panicked request missing from the latency histogram")
	}
	// And the server must keep serving after the panic.
	if code := getJSON(t, srv.URL+"/boom", &out); code != 500 {
		t.Fatalf("second request after panic: status %d", code)
	}
}

func TestPprofIndex(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}
}

func TestDebugJournal(t *testing.T) {
	srv := testServer(t)
	var out struct {
		Events []struct {
			Seq  int    `json:"seq"`
			Type string `json:"type"`
		} `json:"events"`
		Dropped int `json:"dropped"`
	}
	if code := getJSON(t, srv.URL+"/debug/journal", &out); code != 200 {
		t.Fatalf("journal status %d", code)
	}
	if len(out.Events) == 0 {
		t.Fatal("journal has no events")
	}
	types := map[string]bool{}
	for _, ev := range out.Events {
		types[ev.Type] = true
	}
	for _, want := range []string{"run_start", "iteration", "gibbs_checkpoint", "run_end"} {
		if !types[want] {
			t.Errorf("journal missing %s event; saw %v", want, types)
		}
	}
	if out.Dropped != 0 {
		t.Fatalf("dropped = %d on a tiny run", out.Dropped)
	}
}

func TestDebugProfile(t *testing.T) {
	srv := testServer(t)
	var out struct {
		Header *struct {
			Engine     string `json:"engine"`
			ConfigHash string `json:"config_hash"`
		} `json:"header"`
		Phases []struct {
			Phase string `json:"phase"`
		} `json:"phases"`
		Convergence *struct {
			Timeline []struct {
				Sweep int `json:"sweep"`
			} `json:"timeline"`
		} `json:"convergence"`
	}
	if code := getJSON(t, srv.URL+"/debug/profile", &out); code != 200 {
		t.Fatalf("profile status %d", code)
	}
	if out.Header == nil || out.Header.ConfigHash == "" {
		t.Fatalf("profile header = %+v", out.Header)
	}
	if len(out.Phases) != 4 {
		t.Fatalf("phases = %+v", out.Phases)
	}
	if out.Convergence == nil || len(out.Convergence.Timeline) == 0 {
		t.Fatal("profile has no convergence timeline")
	}
}

// TestAdminSnapshot drives the checkpoint endpoint: without a store it
// is a 409; with one, a POST folds the WAL into a fresh snapshot and
// reports the new generation.
func TestAdminSnapshot(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot without a store: %d, want 409", resp.StatusCode)
	}

	k := probkb.New()
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
	st, err := probkb.CreateStore(t.TempDir()+"/store", k)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode, Persist: st})
	if err != nil {
		t.Fatal(err)
	}
	if st.WALRecords() == 0 {
		t.Fatal("persisted expansion appended no WAL records")
	}
	withStore := newHTTPServer(t, New(k, exp, WithStore(st)))
	defer withStore.Close()
	resp, err = http.Post(withStore.URL+"/admin/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Gen        uint32 `json:"gen"`
		WALRecords int64  `json:"walRecords"`
		Facts      int    `json:"facts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.Gen != 2 || out.WALRecords != 0 {
		t.Fatalf("snapshot: %d %+v, want 200 gen=2 walRecords=0", resp.StatusCode, out)
	}
	if out.Facts != exp.Stats().TotalFacts {
		t.Fatalf("snapshot reports %d facts, expansion holds %d", out.Facts, exp.Stats().TotalFacts)
	}
}

// TestFactsPageCostFlat: GET /facts renders only the page it answers,
// counting the other matches from TΠ's ID columns, so the allocations of
// a one-fact page do not grow with the KB from scale 0.05 to 0.25. Its
// total and rows must be what filtering every fact gives, for each
// filter and for limit=0.
func TestFactsPageCostFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("expands the scale-0.25 corpus")
	}
	obs.NewTextLogger(io.Discard, slog.LevelError+4) // silence the request log
	defer obs.SetLogger(slog.Default())
	type page struct {
		Total int `json:"total"`
		Facts []struct {
			Rel, X, Y string
			Inferred  bool
		} `json:"facts"`
	}
	type cost struct{ allocs, bytes float64 }
	measure := func(scale float64) cost {
		k, _, err := probkb.Synthesize(scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode, ApplyConstraints: true})
		if err != nil {
			t.Fatal(err)
		}
		s := New(k, exp)
		get := func(query string) *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/facts?"+query, nil))
			if w.Code != http.StatusOK {
				t.Fatalf("scale %v, /facts?%s: status %d", scale, query, w.Code)
			}
			return w
		}

		// The oracle filters every fact of the expansion.
		all := exp.Facts()
		f := all[len(all)/2]
		for _, c := range []struct {
			query     string
			rel, x, y string
			inferred  string
			limit     int
		}{
			{query: "limit=1", limit: 1},
			{query: "limit=0", limit: 0},
			{query: "rel=" + f.Rel + "&limit=5", rel: f.Rel, limit: 5},
			{query: "x=" + f.X, x: f.X, limit: 100},
			{query: "y=" + f.Y + "&inferred=false&limit=3", y: f.Y, inferred: "false", limit: 3},
			{query: "rel=" + f.Rel + "&inferred=true&limit=7", rel: f.Rel, inferred: "true", limit: 7},
			{query: "inferred=true&limit=0", inferred: "true", limit: 0},
		} {
			var want page
			for _, g := range all {
				if (c.rel != "" && g.Rel != c.rel) || (c.x != "" && g.X != c.x) || (c.y != "" && g.Y != c.y) ||
					(c.inferred != "" && fmt.Sprint(g.Inferred) != c.inferred) {
					continue
				}
				want.Total++
				if len(want.Facts) < c.limit {
					want.Facts = append(want.Facts, struct {
						Rel, X, Y string
						Inferred  bool
					}{g.Rel, g.X, g.Y, g.Inferred})
				}
			}
			var got page
			if err := json.NewDecoder(get(c.query).Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if got.Total != want.Total || fmt.Sprint(got.Facts) != fmt.Sprint(want.Facts) {
				t.Fatalf("scale %v, /facts?%s: total %d, %d facts %v; want %d, %d facts %v",
					scale, c.query, got.Total, len(got.Facts), got.Facts, want.Total, len(want.Facts), want.Facts)
			}
		}
		var c cost
		c.allocs = testing.AllocsPerRun(20, func() { get("limit=1") })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			get("limit=1")
		}
		runtime.ReadMemStats(&after)
		c.bytes = float64(after.TotalAlloc-before.TotalAlloc) / 20
		return c
	}
	small, large := measure(0.05), measure(0.25)
	t.Logf("per GET /facts?limit=1: scale 0.05 %.0f allocs, %.0f B; scale 0.25 %.0f allocs, %.0f B",
		small.allocs, small.bytes, large.allocs, large.bytes)
	// Rendering every match costs a few more append growths, and ~7 MB at
	// scale 0.05 against ~38 MB at 0.25.
	const slackAllocs, slackBytes = 8, 16 << 10
	if large.allocs > small.allocs+slackAllocs || large.bytes > small.bytes+slackBytes {
		t.Errorf("GET /facts?limit=1 grew with TΠ: %.0f allocs, %.0f B at scale 0.05; %.0f allocs, %.0f B at 0.25",
			small.allocs, small.bytes, large.allocs, large.bytes)
	}
}
