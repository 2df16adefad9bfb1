package top

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"
)

// QueryRow mirrors one entry of the server's /debug/queries listing.
type QueryRow struct {
	ID      string        `json:"id"`
	Kind    string        `json:"kind"`
	Text    string        `json:"query"`
	Phase   string        `json:"phase"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Rows    int64         `json:"rows"`
}

// Client polls one probkb-server for the top view.
type Client struct {
	Base string // e.g. "http://localhost:8080"
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Metrics fetches and parses /metrics.
func (c *Client) Metrics() (*Scrape, error) {
	resp, err := c.http().Get(c.Base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return Parse(resp.Body, time.Now())
}

// IncidentRow mirrors one entry of the server's /debug/incidents
// listing.
type IncidentRow struct {
	ID       string    `json:"id"`
	Time     time.Time `json:"time"`
	Detector string    `json:"detector"`
	Summary  string    `json:"summary"`
	QueryID  string    `json:"query_id"`
}

// Incidents fetches the watchdog incident list from /debug/incidents
// (newest first).
func (c *Client) Incidents() ([]IncidentRow, error) {
	resp, err := c.http().Get(c.Base + "/debug/incidents")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/incidents: %s", resp.Status)
	}
	var payload struct {
		Incidents []IncidentRow `json:"incidents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, err
	}
	return payload.Incidents, nil
}

// Incident fetches one full incident report as raw JSON.
func (c *Client) Incident(id string) (json.RawMessage, error) {
	resp, err := c.http().Get(c.Base + "/debug/incidents/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/incidents/%s: %s", id, resp.Status)
	}
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Queries fetches the in-flight query list from /debug/queries.
func (c *Client) Queries() ([]QueryRow, error) {
	resp, err := c.http().Get(c.Base + "/debug/queries")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/queries: %s", resp.Status)
	}
	var payload struct {
		Queries []QueryRow `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, err
	}
	return payload.Queries, nil
}

// Render draws one frame of the top view. prev may be nil (first poll):
// rates and interval quantiles then fall back to lifetime cumulative
// values, marked with a trailing '*'. incidents is the newest-first
// /debug/incidents listing; the frame shows the count and the latest
// one.
func Render(prev, cur *Scrape, queries []QueryRow, incidents []IncidentRow) string {
	var b strings.Builder

	qps, latBuckets, cumulative := "-", cur.Buckets("probkb_http_request_seconds"), true
	if prev != nil {
		if r, ok := Rate(prev, cur, "probkb_http_requests_total"); ok {
			qps = fmt.Sprintf("%.1f", r)
		}
		if d := DeltaBuckets(prev, cur, "probkb_http_request_seconds"); sumInf(d) > 0 {
			latBuckets, cumulative = d, false
		}
	}
	p50 := fmtSeconds(Quantile(latBuckets, 0.50), cumulative)
	p99 := fmtSeconds(Quantile(latBuckets, 0.99), cumulative)

	inFlight, _ := cur.Value("probkb_queries_in_flight")
	gibbs, hasGibbs := cur.Value("probkb_infer_samples_per_second")
	goroutines, _ := cur.Value("probkb_go_goroutines")
	heap, _ := cur.Value("probkb_go_heap_bytes")
	slow, _ := cur.Value("probkb_slow_queries_total")
	// Admission-control sheds (summed over paths) and the serving
	// tier's current epoch generation — a climbing gen with flat
	// rejected is the healthy read-while-expand signature.
	rejected, _ := cur.Value("probkb_http_rejected_total")
	gen, hasGen := cur.Value("probkb_epoch_generation")

	fmt.Fprintf(&b, "probkb top  %s\n\n", cur.Time.Format("15:04:05"))
	fmt.Fprintf(&b, "  qps %-8s  p50 %-10s  p99 %-10s  in-flight %d  rejected %d  slow %d",
		qps, p50, p99, int(inFlight), int(rejected), int(slow))
	if hasGen {
		fmt.Fprintf(&b, "  gen %d", int(gen))
	}
	b.WriteString("\n")
	gs := "-"
	if hasGibbs {
		gs = fmt.Sprintf("%.0f", gibbs)
	}
	fmt.Fprintf(&b, "  gibbs %s samples/s   goroutines %d   heap %s\n",
		gs, int(goroutines), fmtBytes(heap))
	// The latest whole-graph inference pass: an idle gibbs gauge beside
	// "0 sampled" means there was nothing to sample, not a stalled chain.
	if comps, ok := cur.Value("probkb_infer_components"); ok && comps > 0 {
		exact, _ := cur.Value("probkb_infer_exact_components")
		largest, _ := cur.Value("probkb_infer_max_component")
		fmt.Fprintf(&b, "  infer %d components exact, %d sampled (largest %d)\n",
			int(exact), int(comps-exact), int(largest))
	}
	// Streaming-ingest row, shown once the server has absorbed a batch:
	// absorption rate over the poll interval, lifetime totals, current
	// firehose queue depth, and marginal staleness in batches.
	if facts, ok := cur.Value("probkb_ingest_facts_total"); ok && facts > 0 {
		fps := "-"
		if prev != nil {
			if r, ok := Rate(prev, cur, "probkb_ingest_facts_total"); ok {
				fps = fmt.Sprintf("%.0f", r)
			}
		}
		batches, _ := cur.Value("probkb_ingest_batches_total")
		refreshes, _ := cur.Value("probkb_ingest_refreshes_total")
		qdepth, _ := cur.Value("probkb_ingest_queue_depth")
		stale, _ := cur.Value("probkb_ingest_staleness_batches")
		fmt.Fprintf(&b, "  ingest %s facts/s   %d facts in %d batches   %d refreshes   queue %d   stale %d\n",
			fps, int64(facts), int64(batches), int64(refreshes), int(qdepth), int(stale))
	}
	if len(incidents) == 0 {
		b.WriteString("  incidents 0\n\n")
	} else {
		last := incidents[0]
		age := cur.Time.Sub(last.Time).Round(time.Second)
		fmt.Fprintf(&b, "  incidents %d   last %s %s (%s ago): %s\n\n",
			len(incidents), last.ID, last.Detector, age, last.Summary)
	}

	if len(queries) == 0 {
		b.WriteString("  no in-flight queries\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-5s %-9s %-8s %10s %10s  %s\n", "ID", "KIND", "PHASE", "ELAPSED", "ROWS", "QUERY")
	for _, q := range queries {
		text := q.Text
		if len(text) > 60 {
			text = text[:57] + "..."
		}
		fmt.Fprintf(&b, "  %-5s %-9s %-8s %10s %10d  %s\n",
			q.ID, q.Kind, q.Phase, q.Elapsed.Round(time.Millisecond), q.Rows, text)
	}
	return b.String()
}

// sumInf returns the +Inf bucket's count — the total observations.
func sumInf(buckets map[float64]float64) float64 {
	return buckets[math.Inf(1)]
}

func fmtSeconds(s float64, cumulative bool) string {
	if math.IsNaN(s) {
		return "-"
	}
	out := time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
	if cumulative {
		out += "*"
	}
	return out
}

func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	}
	return fmt.Sprintf("%.0fB", v)
}
