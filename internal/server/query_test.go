package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"probkb"
	"probkb/internal/obs"
)

// TestReadyz pins the pending-server lifecycle: a NewPending handler
// is alive (/healthz 200) but not ready (/readyz 503, data endpoints
// 503) until an expansion attaches and SetReady flips.
func TestReadyz(t *testing.T) {
	s := NewPending()
	srv := newHTTPServer(t, s)
	defer srv.Close()

	var out map[string]string
	if code := getJSON(t, srv.URL+"/healthz", &out); code != 200 {
		t.Fatalf("pending healthz: %d", code)
	}
	if code := getJSON(t, srv.URL+"/readyz", &out); code != 503 || out["status"] != "starting" {
		t.Fatalf("pending readyz: %d %v, want 503 starting", code, out)
	}
	var errOut map[string]string
	if code := getJSON(t, srv.URL+"/stats", &errOut); code != 503 {
		t.Fatalf("pending stats: %d, want 503", code)
	}
	if !strings.Contains(errOut["error"], "not ready") {
		t.Fatalf("pending stats error: %v", errOut)
	}
	// /metrics and /debug/queries stay reachable while pending — they
	// are exactly what an operator watches during a long recovery.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pending metrics: %d", resp.StatusCode)
	}

	k := probkb.New()
	k.AddFact("born_in", "RG", "Writer", "Brooklyn", "Place", 0.93)
	k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
	exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode})
	if err != nil {
		t.Fatal(err)
	}
	s.Attach(k, exp)
	s.SetReady(true)
	if code := getJSON(t, srv.URL+"/readyz", &out); code != 200 || out["status"] != "ready" {
		t.Fatalf("attached readyz: %d %v", code, out)
	}
	var stats map[string]any
	if code := getJSON(t, srv.URL+"/stats", &stats); code != 200 {
		t.Fatalf("attached stats: %d", code)
	}
}

// TestSQLAnalyzeResponse asserts analyze=1 adds the EXPLAIN ANALYZE
// plan — actual rows with estimates alongside — to both the GET
// (single-node) and POST (distributed) forms.
func TestSQLAnalyzeResponse(t *testing.T) {
	srv := testServer(t)
	var out struct {
		Rows [][]string `json:"rows"`
		Plan string     `json:"plan"`
	}
	q := "/sql?analyze=1&q=" + strings.ReplaceAll("SELECT T.R, COUNT(*) AS n FROM T GROUP BY T.R", " ", "+")
	if code := getJSON(t, srv.URL+q, &out); code != 200 {
		t.Fatalf("analyze status %d", code)
	}
	if len(out.Rows) == 0 {
		t.Fatal("analyze dropped the result rows")
	}
	for _, want := range []string{"GroupAggregate", "rows=", "est=", "off=", "mem="} {
		if !strings.Contains(out.Plan, want) {
			t.Errorf("single-node plan missing %q:\n%s", want, out.Plan)
		}
	}

	out.Plan = ""
	body := `{"q": "SELECT a.x, d.name FROM T a JOIN DE d ON a.x = d.id", "segments": 2, "analyze": true}`
	if code := postJSON(t, srv.URL+"/sql", body, &out); code != 200 {
		t.Fatalf("distributed analyze status %d", code)
	}
	for _, want := range []string{"Hash Join", "rows=", "est=", "seg_rows="} {
		if !strings.Contains(out.Plan, want) {
			t.Errorf("distributed plan missing %q:\n%s", want, out.Plan)
		}
	}
	// Without analyze, no plan rides along.
	var plain map[string]any
	if code := getJSON(t, srv.URL+"/sql?q=SELECT+T.R+FROM+T", &plain); code != 200 {
		t.Fatalf("plain status %d", code)
	}
	if _, ok := plain["plan"]; ok {
		t.Error("plan present without analyze=1")
	}
}

// TestSlowQueryLog drives the slow-query path end to end: with a 1ns
// threshold every query is slow, lands in /debug/slow newest-first with
// its analyzed plan, and bumps the counter.
func TestSlowQueryLog(t *testing.T) {
	srv := testServer(t)
	obs.DefaultSlowLog.SetThreshold(time.Nanosecond)
	t.Cleanup(func() { obs.DefaultSlowLog.SetThreshold(0) })

	var qOut map[string]any
	if code := getJSON(t, srv.URL+"/sql?q=SELECT+T.R+FROM+T", &qOut); code != 200 {
		t.Fatalf("sql status %d", code)
	}
	var out struct {
		ThresholdNS int64 `json:"threshold_ns"`
		Queries     []struct {
			ID      string `json:"id"`
			Kind    string `json:"kind"`
			Text    string `json:"query"`
			Plan    string `json:"plan"`
			Elapsed int64  `json:"elapsed_ns"`
		} `json:"queries"`
	}
	if code := getJSON(t, srv.URL+"/debug/slow", &out); code != 200 {
		t.Fatalf("slow status %d", code)
	}
	if out.ThresholdNS != 1 {
		t.Fatalf("threshold_ns = %d", out.ThresholdNS)
	}
	if len(out.Queries) == 0 {
		t.Fatal("slow log empty after an over-threshold query")
	}
	sq := out.Queries[0] // newest first: our query
	if sq.Kind != "sql" || sq.Text != "SELECT T.R FROM T" {
		t.Fatalf("slow entry: %+v", sq)
	}
	if !strings.Contains(sq.Plan, "rows=") {
		t.Fatalf("slow entry kept no analyzed plan: %q", sq.Plan)
	}
	if sq.Elapsed <= 0 {
		t.Fatalf("slow entry elapsed = %d", sq.Elapsed)
	}
}

// TestRuntimeMetrics asserts the Go runtime health satellite: /metrics
// carries goroutines, heap, GC pause histogram, and build info.
func TestRuntimeMetrics(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"# TYPE probkb_go_goroutines gauge",
		"# TYPE probkb_go_heap_bytes gauge",
		"# TYPE probkb_go_gc_pause_seconds histogram",
		"# TYPE probkb_build_info gauge",
		`probkb_build_info{goversion="go`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSQLMethodLabelSplit pins the per-method metric split: GET /sql
// and POST /sql count into distinct label values, so single-node and
// distributed query traffic are separable on a dashboard.
func TestSQLMethodLabelSplit(t *testing.T) {
	srv := testServer(t)
	var out map[string]any
	if code := getJSON(t, srv.URL+"/sql?q=SELECT+T.R+FROM+T", &out); code != 200 {
		t.Fatalf("get status %d", code)
	}
	if code := postJSON(t, srv.URL+"/sql",
		`{"q": "SELECT a.x, d.name FROM T a JOIN DE d ON a.x = d.id", "segments": 2}`, &out); code != 200 {
		t.Fatalf("post status %d", code)
	}
	snap := obs.Default.Snapshot()
	if snap[`probkb_http_requests_total{code="200",path="GET /sql"}`] < 1 {
		t.Error("GET /sql not counted under its own path label")
	}
	if snap[`probkb_http_requests_total{code="200",path="POST /sql"}`] < 1 {
		t.Error("POST /sql not counted under its own path label")
	}
	if snap[`probkb_http_request_seconds_count{path="GET /sql"}`] < 1 ||
		snap[`probkb_http_request_seconds_count{path="POST /sql"}`] < 1 {
		t.Error("latency histogram not split by method")
	}
}

// TestQueriesCancelEndToEnd is the registry's acceptance path: a
// long-running /admin/expand shows up in /debug/queries with its phase
// and progress, DELETE /debug/queries/{id} cancels it, and the original
// request unwinds with 499 and the PartialError phase.
func TestQueriesCancelEndToEnd(t *testing.T) {
	srv := testServer(t)

	type result struct {
		code int
		out  map[string]string
	}
	done := make(chan result, 1)
	go func() {
		var out map[string]string
		// Enough Gibbs sweeps to hold the query in the infer phase for
		// seconds — the cancel below lands long before it finishes.
		code := postJSON(t, srv.URL+"/admin/expand",
			`{"inference": true, "burnin": 0, "samples": 50000000}`, &out)
		done <- result{code, out}
	}()

	// Poll the registry until the expand request is listed and in flight.
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
			// Wait for a phase beyond registration so the cancel provably
			// interrupts running work, not setup.
			if q.Kind == "expand" && (q.Phase == "ground" || q.Phase == "infer") {
				id = q.ID
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

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

	select {
	case r := <-done:
		if r.code != statusClientClosedRequest {
			t.Fatalf("cancelled expand status %d (%v), want 499", r.code, r.out)
		}
		if p := r.out["phase"]; p != "ground" && p != "infer" {
			t.Fatalf("cancelled expand phase %q", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled expand request did not unwind")
	}

	// The registry must drain and the server keep serving.
	var list struct {
		Queries []struct {
			ID string `json:"id"`
		} `json:"queries"`
	}
	if code := getJSON(t, srv.URL+"/debug/queries", &list); code != 200 {
		t.Fatalf("queries status %d", code)
	}
	for _, q := range list.Queries {
		if q.ID == id {
			t.Fatal("cancelled query still listed after unwinding")
		}
	}
	var health map[string]string
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 {
		t.Fatal("server did not survive the cancellation")
	}
}

// TestQueryCancelUnknownID: cancelling a query that is not in flight is
// a 404, not a silent success.
func TestQueryCancelUnknownID(t *testing.T) {
	srv := testServer(t)
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/debug/queries/q999999", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cancel status %d, want 404", resp.StatusCode)
	}
}
