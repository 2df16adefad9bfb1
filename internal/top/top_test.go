package top

import (
	"math"
	"strings"
	"testing"
	"time"
)

const exposition = `# HELP probkb_http_requests_total HTTP requests served.
# TYPE probkb_http_requests_total counter
probkb_http_requests_total{path="/sql",code="200"} 40
probkb_http_requests_total{path="/metrics",code="200"} 10
# TYPE probkb_queries_in_flight gauge
probkb_queries_in_flight 3
# TYPE probkb_http_rejected_total counter
probkb_http_rejected_total{path="/sql"} 4
probkb_http_rejected_total{path="/query"} 3
# TYPE probkb_epoch_generation gauge
probkb_epoch_generation 6
# TYPE probkb_http_request_seconds histogram
probkb_http_request_seconds_bucket{path="/sql",le="0.1"} 50
probkb_http_request_seconds_bucket{path="/sql",le="1"} 90
probkb_http_request_seconds_bucket{path="/sql",le="+Inf"} 100
probkb_http_request_seconds_sum{path="/sql"} 12.5
probkb_http_request_seconds_count{path="/sql"} 100
probkb_build_info{goversion="go1.23",version="v1 \"quoted\""} 1
`

func parseFixture(t *testing.T, text string, at time.Time) *Scrape {
	t.Helper()
	sc, err := Parse(strings.NewReader(text), at)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestParseValueAndLabels(t *testing.T) {
	sc := parseFixture(t, exposition, time.Unix(0, 0))
	if v, ok := sc.Value("probkb_http_requests_total"); !ok || v != 50 {
		t.Errorf("requests_total: got (%v, %v), want summed 50", v, ok)
	}
	if v, ok := sc.Value("probkb_queries_in_flight"); !ok || v != 3 {
		t.Errorf("in_flight: got (%v, %v), want 3", v, ok)
	}
	if _, ok := sc.Value("probkb_nonexistent"); ok {
		t.Error("nonexistent metric reported ok")
	}
	var build *Sample
	for i := range sc.Samples {
		if sc.Samples[i].Name == "probkb_build_info" {
			build = &sc.Samples[i]
		}
	}
	if build == nil {
		t.Fatal("build_info not parsed")
	}
	if got := build.Labels["version"]; got != `v1 "quoted"` {
		t.Errorf("escaped label: got %q", got)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"probkb_x{le=\"0.1\" 5\n", // unterminated label block
		"probkb_x 1.2.3\n",        // malformed value
		"probkb_x{le=0.1} 5\n",    // unquoted label value
		"probkb_requests_total\n", // missing value
	} {
		if _, err := Parse(strings.NewReader(bad), time.Unix(0, 0)); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestBucketsAggregateAcrossLabels(t *testing.T) {
	text := `probkb_h_bucket{path="/a",le="1"} 5
probkb_h_bucket{path="/b",le="1"} 7
probkb_h_bucket{path="/a",le="+Inf"} 10
probkb_h_bucket{path="/b",le="+Inf"} 10
`
	sc := parseFixture(t, text, time.Unix(0, 0))
	b := sc.Buckets("probkb_h")
	if b[1] != 12 || b[math.Inf(1)] != 20 {
		t.Errorf("aggregated buckets: got %v", b)
	}
}

func TestRate(t *testing.T) {
	prev := parseFixture(t, "probkb_c_total 100\n", time.Unix(100, 0))
	cur := parseFixture(t, "probkb_c_total 150\n", time.Unix(110, 0))
	if r, ok := Rate(prev, cur, "probkb_c_total"); !ok || r != 5 {
		t.Errorf("Rate: got (%v, %v), want 5/s", r, ok)
	}
	// Counter reset (server restart) must read as 0, not negative.
	reset := parseFixture(t, "probkb_c_total 10\n", time.Unix(120, 0))
	if r, ok := Rate(cur, reset, "probkb_c_total"); !ok || r != 0 {
		t.Errorf("Rate after reset: got (%v, %v), want 0", r, ok)
	}
	if _, ok := Rate(prev, cur, "probkb_missing"); ok {
		t.Error("Rate of missing metric reported ok")
	}
}

func TestQuantile(t *testing.T) {
	buckets := map[float64]float64{0.1: 50, 1: 90, math.Inf(1): 100}
	// p50 = 100*0.5 = 50 observations: exactly the 0.1 bound.
	if got := Quantile(buckets, 0.50); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("p50: got %v, want 0.1", got)
	}
	// p75 = 75 obs: 25/40 of the way through (0.1, 1].
	want := 0.1 + 0.9*25/40
	if got := Quantile(buckets, 0.75); math.Abs(got-want) > 1e-9 {
		t.Errorf("p75: got %v, want %v", got, want)
	}
	// A quantile landing in +Inf clamps to the highest finite bound.
	if got := Quantile(buckets, 0.999); got != 1 {
		t.Errorf("p99.9: got %v, want clamp to 1", got)
	}
	if got := Quantile(map[float64]float64{}, 0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram: got %v, want NaN", got)
	}
}

func TestDeltaBuckets(t *testing.T) {
	prev := parseFixture(t, `probkb_h_bucket{le="1"} 10
probkb_h_bucket{le="+Inf"} 20
`, time.Unix(0, 0))
	cur := parseFixture(t, `probkb_h_bucket{le="1"} 15
probkb_h_bucket{le="+Inf"} 32
`, time.Unix(10, 0))
	d := DeltaBuckets(prev, cur, "probkb_h")
	if d[1] != 5 || d[math.Inf(1)] != 12 {
		t.Errorf("delta: got %v", d)
	}
}

func TestRenderFrame(t *testing.T) {
	prev := parseFixture(t, exposition, time.Unix(100, 0))
	cur := parseFixture(t, strings.ReplaceAll(exposition,
		`probkb_http_requests_total{path="/sql",code="200"} 40`,
		`probkb_http_requests_total{path="/sql",code="200"} 90`), time.Unix(110, 0))
	frame := Render(prev, cur, []QueryRow{
		{ID: "q7", Kind: "sql", Text: "SELECT * FROM T", Phase: "run", Elapsed: 1500 * time.Millisecond, Rows: 42},
	}, []IncidentRow{
		{ID: "i2", Time: cur.Time.Add(-90 * time.Second), Detector: "stuck_query", Summary: "query q7 stuck"},
		{ID: "i1", Time: cur.Time.Add(-5 * time.Minute), Detector: "wal_growth", Summary: "wal runaway"},
	})
	for _, want := range []string{"qps 5.0", "in-flight 3", "rejected 7", "gen 6",
		"q7", "SELECT * FROM T", "run",
		"incidents 2", "i2 stuck_query (1m30s ago): query q7 stuck"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// First poll: no prev, rates unavailable, cumulative quantiles marked *.
	first := Render(nil, cur, nil, nil)
	if !strings.Contains(first, "qps -") || !strings.Contains(first, "*") {
		t.Errorf("first frame should mark cumulative fallback:\n%s", first)
	}
	if !strings.Contains(first, "no in-flight queries") {
		t.Errorf("first frame missing empty-query note:\n%s", first)
	}
	if !strings.Contains(first, "incidents 0") {
		t.Errorf("first frame missing incident count:\n%s", first)
	}
	// No ingest metrics in the fixture: the ingest row stays hidden.
	if strings.Contains(frame, "ingest") {
		t.Errorf("ingest row rendered without ingest metrics:\n%s", frame)
	}
}

func TestRenderIngestRow(t *testing.T) {
	const ingestMetrics = `# TYPE probkb_ingest_facts_total counter
probkb_ingest_facts_total 1000
# TYPE probkb_ingest_batches_total counter
probkb_ingest_batches_total 40
# TYPE probkb_ingest_refreshes_total counter
probkb_ingest_refreshes_total 5
# TYPE probkb_ingest_queue_depth gauge
probkb_ingest_queue_depth 17
# TYPE probkb_ingest_staleness_batches gauge
probkb_ingest_staleness_batches 3
`
	prev := parseFixture(t, exposition+ingestMetrics, time.Unix(100, 0))
	cur := parseFixture(t, exposition+strings.ReplaceAll(ingestMetrics,
		"probkb_ingest_facts_total 1000",
		"probkb_ingest_facts_total 1500"), time.Unix(110, 0))
	frame := Render(prev, cur, nil, nil)
	for _, want := range []string{"ingest 50 facts/s", "1500 facts in 40 batches",
		"5 refreshes", "queue 17", "stale 3"} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// No inference pass yet: no infer row either.
	if strings.Contains(frame, "components exact") {
		t.Errorf("infer row rendered without a pass:\n%s", frame)
	}
}

// TestRenderInferRow: the latest whole-graph inference pass shows as its
// component split, so an idle samples/s gauge reads as "nothing to
// sample", not as a stalled chain.
func TestRenderInferRow(t *testing.T) {
	const inferMetrics = `# TYPE probkb_infer_components gauge
probkb_infer_components 10778
# TYPE probkb_infer_exact_components gauge
probkb_infer_exact_components 10774
# TYPE probkb_infer_sampled_vars gauge
probkb_infer_sampled_vars 88
# TYPE probkb_infer_max_component gauge
probkb_infer_max_component 28
`
	frame := Render(nil, parseFixture(t, exposition+inferMetrics, time.Unix(100, 0)), nil, nil)
	if want := "infer 10774 components exact, 4 sampled (largest 28)"; !strings.Contains(frame, want) {
		t.Errorf("frame missing %q:\n%s", want, frame)
	}
}
