package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"probkb"
)

// queryServer builds a server over a KB with a derivable chain, so
// GET /query exercises local grounding + neighborhood Gibbs.
func queryServer(t *testing.T) *httptest.Server {
	t.Helper()
	k := probkb.New()
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "New_York_City", "City", 0.96)
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
	k.MustAddRule("0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x:Place), born_in(z, y:City)")
	exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode, RunInference: false, GibbsBurnin: 20, GibbsSamples: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return newHTTPServer(t, New(k, exp))
}

func queryURL(srv *httptest.Server, atom string, extra string) string {
	u := srv.URL + "/query?atom=" + url.QueryEscape(atom)
	if extra != "" {
		u += "&" + extra
	}
	return u
}

// TestQuerySmoke is the make query-smoke scenario: point query →
// cached re-query → invalidate via /admin/expand → fresh re-query.
func TestQuerySmoke(t *testing.T) {
	srv := queryServer(t)
	atom := "located_in(Brooklyn, New_York_City)"
	var m marginalJSON
	if code := getJSON(t, queryURL(srv, atom, "burnin=20&samples=100"), &m); code != 200 {
		t.Fatalf("query: %d %+v", code, m)
	}
	if !m.Found || m.Observed || m.Cached || m.Marginal == nil {
		t.Fatalf("cold query: %+v", m)
	}
	if *m.Marginal <= 0 || *m.Marginal >= 1 {
		t.Fatalf("marginal = %v", *m.Marginal)
	}
	// The atom's neighborhood is small enough to enumerate: no sweep ran,
	// and "collected" reports the requested samples (clients and the
	// query_local journal event gate on collected > 0).
	if m.LocalVars == 0 || m.LocalVars > 16 || m.Collected != 100 {
		t.Fatalf("cold query over %d variables collected %d, want the requested 100", m.LocalVars, m.Collected)
	}
	gen := m.Generation

	var cached marginalJSON
	if code := getJSON(t, queryURL(srv, atom, "burnin=20&samples=100"), &cached); code != 200 {
		t.Fatalf("re-query: %d", code)
	}
	if !cached.Cached || cached.Generation != gen || *cached.Marginal != *m.Marginal {
		t.Fatalf("cached re-query: %+v (cold %+v)", cached, m)
	}

	// /admin/expand swaps the served expansion: a new generation whose
	// cache starts empty.
	var ex map[string]any
	if code := postJSON(t, srv.URL+"/admin/expand", `{"inference": false}`, &ex); code != 200 {
		t.Fatalf("expand: %d %v", code, ex)
	}
	var fresh marginalJSON
	if code := getJSON(t, queryURL(srv, atom, "burnin=20&samples=100"), &fresh); code != 200 {
		t.Fatalf("post-expand query: %d", code)
	}
	if fresh.Cached {
		t.Fatalf("post-expand query served the stale generation's cache: %+v", fresh)
	}
	if fresh.Generation == gen {
		t.Fatalf("generation did not bump across /admin/expand: %+v", fresh)
	}
	if !fresh.Found || fresh.Marginal == nil {
		t.Fatalf("post-expand query: %+v", fresh)
	}
}

func TestQueryMarginalNull(t *testing.T) {
	srv := queryServer(t)
	// Unknown atom: 200 with an explicit "marginal": null, never a 500.
	var raw map[string]any
	if code := getJSON(t, queryURL(srv, "born_in(nobody, nowhere)", ""), &raw); code != 200 {
		t.Fatalf("unknown atom: %d", code)
	}
	if v, present := raw["marginal"]; !present || v != nil {
		t.Fatalf("marginal = %v, want explicit null", v)
	}
	if raw["found"] != false {
		t.Fatalf("found = %v", raw["found"])
	}

	// samples=-1 skips inference on a derivable atom: found, null marginal.
	if code := getJSON(t, queryURL(srv, "located_in(Brooklyn, New_York_City)", "samples=-1"), &raw); code != 200 {
		t.Fatalf("samples=-1: %d", code)
	}
	if raw["found"] != true || raw["marginal"] != nil {
		t.Fatalf("samples=-1: %+v", raw)
	}
}

func TestQueryObservedAtom(t *testing.T) {
	srv := queryServer(t)
	var m marginalJSON
	if code := getJSON(t, queryURL(srv, "born_in(Ruth_Gruber, Brooklyn)", ""), &m); code != 200 {
		t.Fatalf("observed query: %d", code)
	}
	if !m.Found || !m.Observed || m.Marginal == nil || *m.Marginal != 0.93 {
		t.Fatalf("observed query: %+v", m)
	}
}

func TestQueryBadRequests(t *testing.T) {
	srv := queryServer(t)
	for _, u := range []string{
		srv.URL + "/query",
		srv.URL + "/query?atom=" + url.QueryEscape("born_in"),
		srv.URL + "/query?atom=" + url.QueryEscape("born_in(a, b, c)"),
		queryURL(srv, "born_in(Ruth_Gruber, Brooklyn)", "depth=zero"),
		queryURL(srv, "born_in(Ruth_Gruber, Brooklyn)", "nocache=maybe"),
	} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", u, resp.StatusCode)
		}
	}
}

// TestQueryConcurrentInvalidation races concurrent GET /query readers
// against repeated /admin/expand swaps: every response must decode as
// a valid 200 answer, never an error or a stale-generation crash (the
// interesting assertions are the -race instrumentation and the server
// staying consistent while its expansion is swapped underneath).
func TestQueryConcurrentInvalidation(t *testing.T) {
	srv := queryServer(t)
	atoms := []string{
		"located_in(Brooklyn, New_York_City)",
		"live_in(Ruth_Gruber, Brooklyn)",
		"born_in(Ruth_Gruber, Brooklyn)",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := queryURL(srv, atoms[(c+i)%len(atoms)], "burnin=10&samples=20")
				resp, err := http.Get(u)
				if err != nil {
					report(fmt.Errorf("reader %d: %v", c, err))
					return
				}
				var m marginalJSON
				err = json.NewDecoder(resp.Body).Decode(&m)
				resp.Body.Close()
				if err != nil {
					report(fmt.Errorf("reader %d: decoding %s: %v", c, u, err))
					return
				}
				if resp.StatusCode != 200 {
					report(fmt.Errorf("reader %d: %s -> %d", c, u, resp.StatusCode))
					return
				}
			}
		}(c)
	}
	for i := 0; i < 3; i++ {
		var ex map[string]any
		if code := postJSON(t, srv.URL+"/admin/expand", `{"inference": false}`, &ex); code != 200 {
			t.Fatalf("expand %d: %d %v", i, code, ex)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// After the last swap, the next uncached answer must come from the
	// final generation.
	var m marginalJSON
	if code := getJSON(t, queryURL(srv, atoms[0], "nocache=1"), &m); code != 200 {
		t.Fatalf("final query: %d", code)
	}
	if m.Cached {
		t.Fatalf("nocache query hit the cache: %+v", m)
	}
}
