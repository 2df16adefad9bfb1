package server

import (
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"probkb"
	"probkb/internal/obs"
)

// The serving side of the per-generation relational image: readers of
// one generation share it (so they must be able to race on it), nothing
// reachable over HTTP writes it, and a server nobody sends SQL to never
// builds it.

type sqlAnswer struct {
	Columns    []string   `json:"columns"`
	Rows       [][]string `json:"rows"`
	Plan       string     `json:"plan"`
	Generation uint64     `json:"generation"`
	Error      string     `json:"error"`
}

// imageTablesBuilt sums probkb_kb_image_tables_built_total over tables.
func imageTablesBuilt() float64 {
	var n float64
	for k, v := range obs.Default.Snapshot() {
		if strings.HasPrefix(k, "probkb_kb_image_tables_built_total{") {
			n += v
		}
	}
	return n
}

// generationKB pins the current generation and returns its number and KB.
func generationKB(s *Server) (uint64, *probkb.KB) {
	pin := s.snaps.Pin()
	defer pin.Unpin()
	return pin.Gen(), pin.Value().kb
}

var analyzeNoise = regexp.MustCompile(`time=[^ )]+`)

// TestSQLReadersShareImageUnderIngest: two GET /sql readers and one
// EXPLAIN ANALYZE reader (GET /sql?analyze=1 — the plan text, hence the
// optimizer's statistics, included) run beside a POST /facts?stream=1
// that publishes a generation per batch, some over known names (the
// image is inherited) and some with new ones (it is rebuilt). Every
// answer must equal what the library answers for the generation the
// response names. Under -race this is also the test that the statistics
// the readers share are no longer an unsynchronized map.
func TestSQLReadersShareImageUnderIngest(t *testing.T) {
	srv, s := ingestTestServer(t)

	var mu sync.Mutex
	gens := map[uint64]*probkb.KB{}
	// A batch that triggers a refresh publishes twice — the absorbed
	// batch, then its refreshed marginals — over one and the same KB.
	record := func(refreshed bool) {
		gen, kb := generationKB(s)
		mu.Lock()
		gens[gen] = kb
		if refreshed {
			gens[gen-1] = kb
		}
		mu.Unlock()
	}
	record(false)

	queries := []string{
		"SELECT DE.name, T.w FROM T JOIN DE ON T.x = DE.id",
		"SELECT COUNT(*) AS n FROM DE",
		"SELECT T.R, T.y, T.w FROM T WHERE T.x = 0",
	}
	type observed struct {
		query   string
		analyze bool
		sqlAnswer
	}
	var (
		wg   sync.WaitGroup
		seen []observed
		stop = make(chan struct{})
	)
	reader := func(analyze bool) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := queries[i%len(queries)]
			u := srv.URL + "/sql?q=" + url.QueryEscape(q)
			if analyze {
				u += "&analyze=1"
			}
			var a sqlAnswer
			if code := getJSON(t, u, &a); code != http.StatusOK {
				t.Errorf("GET /sql %q: %d %s", q, code, a.Error)
				return
			}
			mu.Lock()
			seen = append(seen, observed{q, analyze, a})
			mu.Unlock()
		}
	}
	wg.Add(3)
	go reader(false)
	go reader(false)
	go reader(true)

	c := openStream(t, srv.URL+"/facts?stream=1&refreshEvery=2")
	for i, names := range [][]string{{"Freud"}, {"Ruth_Gruber"}, {"Mahler", "Zweig"}, {"Freud"}, {"Kafka"}, {"Ruth_Gruber"}} {
		c.send(chunk(names...))
		a := c.ack()
		if a.Batch != i+1 {
			t.Fatalf("ack %d = %+v", i, a)
		}
		record(a.Refreshed)
	}
	c.close()
	close(stop)
	wg.Wait()

	if len(gens) < 4 {
		t.Fatalf("the stream published %d distinct generations, want one per batch", len(gens))
	}
	served := map[uint64]bool{}
	for _, o := range seen {
		kb, ok := gens[o.Generation]
		if !ok {
			t.Fatalf("answer names generation %d, which was never published", o.Generation)
		}
		served[o.Generation] = true
		want, err := kb.QuerySQL(o.query)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o.Columns, want.Columns) || !reflect.DeepEqual(o.Rows, want.Rows) {
			t.Fatalf("generation %d answered %v over HTTP, %v in the library, to %s", o.Generation, o.Rows, want.Rows, o.query)
		}
		if o.analyze {
			plan, err := kb.ExplainAnalyzeSQL(t.Context(), o.query)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := analyzeNoise.ReplaceAllString(o.Plan, "time=-"), analyzeNoise.ReplaceAllString(plan, "time=-"); g != w {
				t.Fatalf("generation %d planned\n%s\nover HTTP,\n%s\nin the library", o.Generation, g, w)
			}
		}
	}
	t.Logf("%d answers over %d of %d generations", len(seen), len(served), len(gens))
}

// TestSQLDeleteRefused: the relational image is shared and immutable, so
// a DELETE is a client error on both SQL routes and leaves T as it was.
func TestSQLDeleteRefused(t *testing.T) {
	s, srv := mvccServer(t)
	_, kb := generationKB(s)
	before, err := kb.QuerySQL("SELECT T.I, T.R, T.x, T.C1, T.y, T.C2, T.w FROM T")
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"DELETE FROM T WHERE T.w < 0.95",
		"DELETE FROM T WHERE (T.x, T.C1) IN (SELECT DISTINCT T.x, T.C1 FROM T)",
	} {
		var a sqlAnswer
		if code := getJSON(t, srv.URL+"/sql?q="+url.QueryEscape(stmt), &a); code < 400 || code > 499 || a.Error == "" {
			t.Errorf("GET /sql %q: %d %+v, want a 4xx with an error", stmt, code, a)
		}
		a = sqlAnswer{}
		if code := postJSON(t, srv.URL+"/sql", fmt.Sprintf(`{"q": %q, "segments": 2}`, stmt), &a); code < 400 || code > 499 || a.Error == "" {
			t.Errorf("POST /sql %q: %d %+v, want a 4xx with an error", stmt, code, a)
		}
	}
	after, err := kb.QuerySQL("SELECT T.I, T.R, T.x, T.C1, T.y, T.C2, T.w FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) != 10 || !reflect.DeepEqual(after, before) {
		t.Fatalf("T after the DELETEs:\n%v\nbefore:\n%v", after, before)
	}
}

// TestNoSQLTrafficBuildsNoImage is ingest-serve in miniature: streamed
// batches with refreshes beside a GET /query reader, and not one SQL
// request. Every generation gets an (empty) image at most; no table of
// any of them is ever materialized.
func TestNoSQLTrafficBuildsNoImage(t *testing.T) {
	before := imageTablesBuilt()
	srv, _ := ingestTestServer(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		atom := url.QueryEscape("live_in(Ruth_Gruber, Brooklyn)")
		for {
			select {
			case <-stop:
				return
			default:
			}
			var out map[string]any
			if code := getJSON(t, srv.URL+"/query?atom="+atom+"&burnin=5&samples=20", &out); code != http.StatusOK {
				t.Errorf("GET /query: %d %v", code, out)
				return
			}
		}
	}()
	c := openStream(t, srv.URL+"/facts?stream=1&refreshEvery=2")
	for i, names := range [][]string{{"Freud"}, {"Mahler", "Zweig"}, {"Freud"}, {"Kafka"}} {
		c.send(chunk(names...))
		if a := c.ack(); a.Batch != i+1 {
			t.Fatalf("ack %d = %+v", i, a)
		}
	}
	c.close()
	close(stop)
	wg.Wait()

	if n := imageTablesBuilt() - before; n != 0 {
		t.Fatalf("a server that was sent no SQL materialized %v relational-image tables", n)
	}
}
