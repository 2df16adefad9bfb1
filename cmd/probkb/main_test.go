package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"probkb"
	"probkb/internal/ingest"
	"probkb/internal/server"
)

func tinyKB() *probkb.KB {
	k := probkb.New()
	k.AddFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
	k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
	return k
}

func bornIn(name string, p any) string {
	return fmt.Sprintf(`{"rel":"born_in","x":%q,"xClass":"Writer","y":"Vienna","yClass":"Place","probability":%v}`, name, p)
}

var timings = regexp.MustCompile(`, \S+ \(\d+ facts/sec\)`)

// runIngest runs `probkb ingest -v` on a saved copy of tinyKB with a
// fresh store and size-triggered batches only, and returns the exit
// code and the transcript with the store path and timings normalised.
func runIngest(t *testing.T, input string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	kbDir, storeDir := filepath.Join(dir, "kb"), filepath.Join(dir, "store")
	if err := tinyKB().Save(kbDir); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := cmdIngest(context.Background(), []string{"-kb", kbDir, "-persist", storeDir, "-batch", "2", "-delay", "1h",
		"-refresh-every", "2", "-burnin", "20", "-samples", "50", "-seed", "1", "-v"},
		strings.NewReader(input), &stdout, &stderr)
	out := stdout.String() + "--- stderr\n" + stderr.String()
	out = strings.ReplaceAll(out, storeDir, "<store>")
	return code, timings.ReplaceAllString(out, ", <elapsed> (<rate> facts/sec)")
}

// TestIngestTranscript pins what `probkb ingest -v` prints, on the happy
// path and when the stream carries a fact the validator refuses: the
// batches before the offending one stay landed and durable, nothing of
// the offending batch lands, and the command exits non-zero with the
// message an HTTP client would get for the same fact.
func TestIngestTranscript(t *testing.T) {
	names := []string{"Freud", "Mahler", "Zweig", "Kafka", "Rilke"}
	var good []string
	for _, n := range names {
		good = append(good, bornIn(n, 0.9))
	}
	for _, tc := range []struct {
		name, input, want string
		code              int
	}{
		{"valid", strings.Join(good, "\n"), `initialized store <store>
baseline       1 base + 1 inferred facts
  batch 1: 2 facts (+2 new, 2 derived) gen 2 seq 3 stale 1
  batch 2: 2 facts (+2 new, 2 derived) gen 4 seq 5 stale 0 [refreshed]
  batch 3: 1 facts (+1 new, 1 derived) gen 5 seq 6 stale 1
ingested       5 facts in 3 batches, <elapsed> (<rate> facts/sec)
refreshes      2 (staleness at exit: 0 batches)
closure        12 base + 0 inferred facts, generation 6
store          <store>: gen 1, 7 WAL records, 12 facts durable
--- stderr
`, 0},
		{"invalid", strings.Join(append(good[:3:3], bornIn("Nobody", 7)), "\n"), `initialized store <store>
baseline       1 base + 1 inferred facts
  batch 1: 2 facts (+2 new, 2 derived) gen 2 seq 3 stale 1
ingested       2 facts in 1 batches, <elapsed> (<rate> facts/sec)
refreshes      0 (staleness at exit: 1 batches)
closure        4 base + 2 inferred facts, generation 2
store          <store>: gen 1, 3 WAL records, 6 facts durable
--- stderr
probkb: pipeline stopped early: ingest: batch 2: facts[1]: probability 7 outside [0, 1]
probkb: durable state through the last absorbed batch is in <store>; re-run with -persist to resume
`, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, got := runIngest(t, tc.input)
			if code != tc.code || got != tc.want {
				t.Fatalf("exit %d (want %d), transcript:\n%s\nwant:\n%s", code, tc.code, got, tc.want)
			}
		})
	}
}

// TestInvalidFactsRejectedAlike feeds the same bad facts to every
// driver of the write path — streamFacts into a pipeline (the CLI),
// POST /facts?stream=1 and plain POST /facts — and requires the same
// rejection from each, naming the offending fact, with the generation
// unchanged. NaN and ±Inf cannot be written in JSON, so only the CLI's
// CSV form can carry them to the validator; over HTTP they are refused
// as malformed, and publish nothing either.
func TestInvalidFactsRejectedAlike(t *testing.T) {
	exp, err := tinyKB().Expand(probkb.Config{Engine: probkb.SingleNode})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(tinyKB(), exp)
	srv := httptest.NewServer(s)
	defer srv.Close()
	post := func(path, body string) string {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		if path == "/facts" && resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /facts = %d, want 400", resp.StatusCode)
		}
		return out.Error
	}

	for _, tc := range []struct {
		name string
		csv  string // the bad fact as a CSV record
		json string // and as a JSON object; "" when JSON cannot say it
		want string
	}{
		{"NaN", "born_in,Nobody,Writer,Vienna,Place,NaN", "", "facts[1]: probability NaN outside [0, 1]"},
		{"+Inf", "born_in,Nobody,Writer,Vienna,Place,+Inf", "", "facts[1]: probability +Inf outside [0, 1]"},
		{"-Inf", "born_in,Nobody,Writer,Vienna,Place,-Inf", "", "facts[1]: probability -Inf outside [0, 1]"},
		{"7", "born_in,Nobody,Writer,Vienna,Place,7", bornIn("Nobody", 7), "facts[1]: probability 7 outside [0, 1]"},
		{"-1", "born_in,Nobody,Writer,Vienna,Place,-1", bornIn("Nobody", -1), "facts[1]: probability -1 outside [0, 1]"},
		{"no rel", ",Nobody,Writer,Vienna,Place,0.5", `{"x":"Nobody","xClass":"Writer","y":"Vienna","yClass":"Place","probability":0.5}`, "facts[1]: rel, x, xClass, y, yClass are all required"},
		{"no x", "born_in,,Writer,Vienna,Place,0.5", `{"rel":"born_in","xClass":"Writer","y":"Vienna","yClass":"Place","probability":0.5}`, "facts[1]: rel, x, xClass, y, yClass are all required"},
		{"no xClass", "born_in,Nobody,,Vienna,Place,0.5", `{"rel":"born_in","x":"Nobody","y":"Vienna","yClass":"Place","probability":0.5}`, "facts[1]: rel, x, xClass, y, yClass are all required"},
		{"no y", "born_in,Nobody,Writer,,Place,0.5", `{"rel":"born_in","x":"Nobody","xClass":"Writer","yClass":"Place","probability":0.5}`, "facts[1]: rel, x, xClass, y, yClass are all required"},
		{"no yClass", "born_in,Nobody,Writer,Vienna,,0.5", `{"rel":"born_in","x":"Nobody","xClass":"Writer","y":"Vienna","probability":0.5}`, "facts[1]: rel, x, xClass, y, yClass are all required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// CLI: the good fact and the bad one seal into one batch.
			ing := probkb.NewIngester(exp)
			p := ing.Pipeline(context.Background(), ingest.Config{MaxBatch: 2, MaxDelay: time.Hour})
			n, err := streamFacts(strings.NewReader("born_in,Freud,Writer,Vienna,Place,0.9\n"+tc.csv+"\n"), "csv",
				func(f ingest.Fact) error { return p.Submit(context.Background(), f) })
			if n != 2 || err != nil {
				t.Fatalf("streamFacts read %d facts, %v", n, err)
			}
			if err := p.Close(context.Background()); err == nil || err.Error() != "ingest: batch 1: "+tc.want {
				t.Fatalf("CLI: pipeline error %v, want %q", err, tc.want)
			}
			if g := ing.Generation(); g != 1 {
				t.Fatalf("CLI: generation %d after a rejected batch, want 1", g)
			}

			gen := s.Epoch().Current()
			body := `{"facts":[` + bornIn("Freud", 0.9) + `,` + tc.json + `]}`
			if tc.json == "" {
				body = `{"facts":[` + bornIn("Freud", 0.9) + `,` + bornIn("Nobody", tc.name) + `]}`
				tc.want = "" // malformed, not invalid: any refusal will do
			}
			if got := post("/facts?stream=1", body); got == "" || (tc.want != "" && got != "batch 1: "+tc.want) {
				t.Fatalf("stream: error line %q, want %q", got, "batch 1: "+tc.want)
			}
			if got := post("/facts", body); got == "" || (tc.want != "" && got != tc.want) {
				t.Fatalf("POST /facts: error %q, want %q", got, tc.want)
			}
			if g := s.Epoch().Current(); g != gen {
				t.Fatalf("HTTP: generation %d after rejected requests, want %d", g, gen)
			}
		})
	}
}
