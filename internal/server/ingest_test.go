package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"probkb"
	"probkb/internal/ingest"
)

// These tests pin the streaming POST /facts contract: per-batch NDJSON
// acks with monotone generation and durable sequence, refresh policy
// behavior, no torn generation on a mid-stream disconnect, and the 429
// admission interaction.

// streamClient drives one POST /facts?stream=1 request: chunks are
// written through a pipe and acks decoded one line at a time, so each
// assert happens at a precise point of the stream.
type streamClient struct {
	t      *testing.T
	pw     *io.PipeWriter
	respCh chan streamResult
	resp   *http.Response
	dec    *json.Decoder
}

type streamResult struct {
	resp *http.Response
	err  error
}

func openStream(t *testing.T, url string) *streamClient {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", url, pr)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan streamResult, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		ch <- streamResult{resp, err}
	}()
	return &streamClient{t: t, pw: pw, respCh: ch}
}

func (c *streamClient) send(chunk string) {
	c.t.Helper()
	if _, err := io.WriteString(c.pw, chunk); err != nil {
		c.t.Fatalf("writing chunk: %v", err)
	}
}

// ack reads the next NDJSON line. The first call waits for the response
// headers (the server sends them with the first flushed line).
func (c *streamClient) ack() ingest.Ack {
	c.t.Helper()
	c.waitResp()
	var a ingest.Ack
	if err := c.dec.Decode(&a); err != nil {
		c.t.Fatalf("decoding ack: %v", err)
	}
	return a
}

func (c *streamClient) waitResp() {
	c.t.Helper()
	if c.resp != nil {
		return
	}
	select {
	case r := <-c.respCh:
		if r.err != nil {
			c.t.Fatalf("stream request: %v", r.err)
		}
		c.resp = r.resp
		c.dec = json.NewDecoder(c.resp.Body)
	case <-time.After(10 * time.Second):
		c.t.Fatal("no response within 10s")
	}
}

func (c *streamClient) close() {
	c.t.Helper()
	c.pw.Close()
	if c.resp != nil {
		io.Copy(io.Discard, c.resp.Body)
		c.resp.Body.Close()
	}
}

// ingestTestServer builds a serving stack with a durable store attached
// so acks carry real durable sequences.
func ingestTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	build := func() *probkb.KB {
		k := probkb.New()
		k.AddFact("born_in", "Ruth_Gruber", "Writer", "Brooklyn", "Place", 0.93)
		k.MustAddRule("1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)")
		return k
	}
	dir := filepath.Join(t.TempDir(), "store")
	st, err := probkb.CreateStore(dir, build())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	exp, err := build().Expand(probkb.Config{
		Engine: probkb.SingleNode, RunInference: true,
		GibbsBurnin: 20, GibbsSamples: 100, Persist: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(build(), exp, WithStore(st))
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv, s
}

func chunk(names ...string) string {
	var facts []string
	for _, n := range names {
		facts = append(facts, fmt.Sprintf(
			`{"rel":"born_in","x":%q,"xClass":"Writer","y":"Vienna","yClass":"Place","probability":0.9}`, n))
	}
	return fmt.Sprintf(`{"facts":[%s]}`, strings.Join(facts, ","))
}

// TestFactsStreamAcks: every chunk is acked with the batch's own
// published generation and durable sequence, both strictly advancing.
func TestFactsStreamAcks(t *testing.T) {
	srv, _ := ingestTestServer(t)
	c := openStream(t, srv.URL+"/facts?stream=1")
	defer c.close()

	var acks []ingest.Ack
	for i, names := range [][]string{{"Freud"}, {"Mahler", "Zweig"}, {"Kafka"}} {
		c.send(chunk(names...))
		a := c.ack()
		if a.Batch != i+1 {
			t.Fatalf("ack %d has batch %d", i, a.Batch)
		}
		if a.Facts != len(names) || a.Added != len(names) {
			t.Fatalf("ack %d = %+v, want %d facts added", i, a, len(names))
		}
		// Every streamed writer derives a live_in fact.
		if a.Derived != len(names) {
			t.Fatalf("ack %d derived %d, want %d", i, a.Derived, len(names))
		}
		if a.DurableSeq == 0 {
			t.Fatalf("ack %d has no durable sequence with a store attached", i)
		}
		if len(acks) > 0 {
			prev := acks[len(acks)-1]
			if a.Generation <= prev.Generation {
				t.Fatalf("generations not strictly monotone: %d then %d", prev.Generation, a.Generation)
			}
			if a.DurableSeq < prev.DurableSeq {
				t.Fatalf("durable seqs went backwards: %d then %d", prev.DurableSeq, a.DurableSeq)
			}
		}
		if a.StaleBatches == 0 {
			t.Fatalf("ack %d reports zero staleness without a refresh policy", i)
		}
		acks = append(acks, a)
	}
	c.pw.Close()
	c.waitResp()
	var done struct {
		Done    bool `json:"done"`
		Batches int  `json:"batches"`
	}
	if err := c.dec.Decode(&done); err != nil || !done.Done || done.Batches != 3 {
		t.Fatalf("terminal line = %+v, %v", done, err)
	}

	// Acked batches are all visible to new readers.
	var facts struct {
		Total int `json:"total"`
	}
	if code := getJSON(t, srv.URL+"/facts?rel=born_in", &facts); code != 200 || facts.Total != 5 {
		t.Fatalf("after stream: %d born_in facts (code %d), want 5", facts.Total, code)
	}
}

// TestFactsStreamRefreshEvery: with refreshEvery=2 the second batch's
// ack reports a refresh and zero staleness, and the refresh fills the
// deferred batches' NaN marginals (probability non-null over the API).
func TestFactsStreamRefreshEvery(t *testing.T) {
	srv, _ := ingestTestServer(t)
	c := openStream(t, srv.URL+"/facts?stream=1&refreshEvery=2")
	defer c.close()

	c.send(chunk("Freud"))
	a1 := c.ack()
	if a1.Refreshed || a1.StaleBatches != 1 {
		t.Fatalf("ack 1 = %+v, want stale=1 unrefreshed", a1)
	}
	c.send(chunk("Mahler"))
	a2 := c.ack()
	if !a2.Refreshed || a2.StaleBatches != 0 {
		t.Fatalf("ack 2 = %+v, want refreshed with stale=0", a2)
	}
	c.pw.Close()

	// After the refresh every derived fact has a marginal: live_in rows
	// only exist by derivation, so none may report a null probability.
	var facts struct {
		Facts []struct {
			Probability *float64 `json:"probability"`
		} `json:"facts"`
	}
	if code := getJSON(t, srv.URL+"/facts?rel=live_in", &facts); code != 200 || len(facts.Facts) != 3 {
		t.Fatalf("live_in facts: code %d, %d facts, want 3", code, len(facts.Facts))
	}
	for i, f := range facts.Facts {
		if f.Probability == nil {
			t.Fatalf("derived fact %d still has a NaN marginal after refresh", i)
		}
	}
}

// TestFactsStreamDisconnectNoTornGeneration: a client that dies after a
// partial chunk loses only that chunk — every acked batch stays
// published, the in-flight one publishes nothing, and the generation
// observable through /stats is exactly the last acked one.
func TestFactsStreamDisconnectNoTornGeneration(t *testing.T) {
	srv, _ := ingestTestServer(t)
	c := openStream(t, srv.URL+"/facts?stream=1")

	c.send(chunk("Freud"))
	a1 := c.ack()
	// Die mid-chunk: half a JSON object, then the transport error.
	c.send(`{"facts":[{"rel":"born_in","x":"Torn`)
	c.pw.CloseWithError(io.ErrUnexpectedEOF)
	io.Copy(io.Discard, c.resp.Body)
	c.resp.Body.Close()

	// The server settles: generation is a1's, not a torn successor.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var stats struct {
			Epoch struct {
				Generation uint64 `json:"generation"`
			} `json:"epoch"`
		}
		if code := getJSON(t, srv.URL+"/stats", &stats); code != 200 {
			t.Fatalf("stats code %d", code)
		}
		if stats.Epoch.Generation == a1.Generation {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("generation = %d, want %d (last acked)", stats.Epoch.Generation, a1.Generation)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var facts struct {
		Total int `json:"total"`
	}
	if code := getJSON(t, srv.URL+"/facts?rel=born_in&x=Freud", &facts); code != 200 || facts.Total != 1 {
		t.Fatalf("acked batch lost after disconnect: total=%d code=%d", facts.Total, code)
	}
	if code := getJSON(t, srv.URL+"/facts?rel=born_in&x=Torn", &facts); code != 200 || facts.Total != 0 {
		t.Fatalf("torn chunk visible after disconnect: total=%d code=%d", facts.Total, code)
	}
	// The server still ingests: a fresh stream picks up from a1.
	c2 := openStream(t, srv.URL+"/facts?stream=1")
	defer c2.close()
	c2.send(chunk("Mahler"))
	a2 := c2.ack()
	if a2.Generation <= a1.Generation {
		t.Fatalf("post-disconnect generation %d not after %d", a2.Generation, a1.Generation)
	}
	c2.pw.Close()
}

// TestFactsPostAdmission: POST /facts sits behind admission control —
// while a streaming ingest holds the only slot, other data requests
// shed with 429 + Retry-After, and the slot frees when the stream ends.
func TestFactsPostAdmission(t *testing.T) {
	srv, s := ingestTestServer(t)
	// One admission slot: the long-lived stream will hold it for its
	// entire request lifetime.
	s.SetMaxInFlight(1)

	c := openStream(t, srv.URL+"/facts?stream=1")
	defer c.close()
	c.send(chunk("Freud"))
	c.ack() // the stream is admitted and mid-request now

	resp, err := http.Post(srv.URL+"/facts", "application/json",
		strings.NewReader(chunk("Mahler")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("competing POST /facts = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Stream ends; the slot frees; writes are admitted again.
	c.pw.Close()
	c.waitResp()
	io.Copy(io.Discard, c.resp.Body)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(srv.URL+"/facts", "application/json",
			strings.NewReader(chunk("Zweig")))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("POST /facts still %d after stream closed", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
