package probkb_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"probkb"
	"probkb/internal/obs/journal"
	"probkb/internal/server"
)

// TestGenerationKeepsTheKBItWasHanded: a constrained generation's KB is
// the one its lineage was handed — the up-front Query 3 cleans a private
// fork — and "derived" means a fact ID at or above the round's first
// derived one, on every count. The corpus is one whose PreClean deletes,
// so the pre-cleaned facts and the handed ones differ, and whose
// constraint passes remove base facts, so a row count past the base
// facts and the ID watermark differ too.
func TestGenerationKeepsTheKBItWasHanded(t *testing.T) {
	k, _, err := probkb.Synthesize(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	handedIDs, handed := probkb.FactIDs(k), k.Stats().Facts
	cfg := probkb.DefaultConfig()
	cfg.RunInference = false
	exp, err := k.Expand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := exp.Facts()[0]
	next, err := exp.ExtendWith([]probkb.Fact{{
		Rel: base.Rel, X: base.X, XClass: base.XClass,
		Y: "streamed_entity", YClass: base.YClass, Probability: 0.9,
	}})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("kb", func(t *testing.T) {
		for name, e := range map[string]*probkb.Expansion{"expand": exp, "extend": next} {
			ids, n := probkb.FactIDs(e.KB()), e.KB().Stats().Facts
			if n != handed || len(ids) == 0 || &ids[0] != &handedIDs[0] {
				t.Errorf("%s: KB holds %d facts (shared arrays %v), want the %d it was handed",
					name, n, len(ids) > 0 && &ids[0] == &handedIDs[0], handed)
			}
		}
	})

	t.Run("counts", func(t *testing.T) {
		for name, e := range map[string]*probkb.Expansion{"expand": exp, "extend": next} {
			st := e.Stats()
			inferred := 0
			for _, f := range e.Facts() {
				if f.Inferred {
					inferred++
				}
			}
			if st.InferredFacts != len(e.InferredFacts()) || st.InferredFacts != inferred ||
				st.BaseFacts+st.InferredFacts != st.TotalFacts {
				t.Errorf("%s: stats %d base + %d inferred = %d total, %d facts flagged inferred",
					name, st.BaseFacts, st.InferredFacts, st.TotalFacts, inferred)
			}
			run, err := journal.FromEvents(e.Journal().Events())
			if err != nil {
				t.Fatal(err)
			}
			if end := run.End; end == nil || end.InferredFacts != st.InferredFacts ||
				end.BaseFacts != st.BaseFacts || end.TotalFacts != st.TotalFacts {
				t.Errorf("%s: run_end %+v, stats %+v", name, end, st)
			}
		}
	})

	t.Run("server", func(t *testing.T) {
		srv := httptest.NewServer(server.New(k, exp))
		defer srv.Close()
		count := func() int {
			t.Helper()
			var out struct {
				Rows [][]string `json:"rows"`
			}
			resp, err := http.Get(srv.URL + "/sql?q=" + url.QueryEscape("SELECT COUNT(*) FROM T"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Rows) != 1 {
				t.Fatalf("GET /sql: %d rows, %v", len(out.Rows), err)
			}
			n, err := strconv.Atoi(out.Rows[0][0])
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		before := count()
		chunk := fmt.Sprintf(`{"facts":[{"rel":%q,"x":%q,"xClass":%q,"y":"streamed_entity","yClass":%q,"probability":0.9}]}`,
			base.Rel, base.X, base.XClass, base.YClass)
		resp, err := http.Post(srv.URL+"/facts?stream=1", "application/x-ndjson", strings.NewReader(chunk))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"added":1`) {
			t.Fatalf("streamed batch: %d %s", resp.StatusCode, body)
		}
		if after := count(); before != handed || after != before {
			t.Errorf("SELECT COUNT(*) FROM T: %d at generation 1, %d after one batch; the KB holds %d facts",
				before, after, handed)
		}
	})
}
