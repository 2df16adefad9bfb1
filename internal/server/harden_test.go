package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"probkb"
)

// TestFactsStreamCheckpointRace is the -race regression for the store's
// single-writer contract: POST /admin/snapshot once checkpointed without
// the writer mutex while a streamed batch appended to the same WAL, and
// the WAL-growth watchdog reads the store's counters from its own
// goroutine. Checkpoints and counter polls run flat out beside a
// stream; every acked fact must be in the store afterwards, and a
// recovery must land on the mirror.
func TestFactsStreamCheckpointRace(t *testing.T) {
	srv, s := ingestTestServer(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the watchdog's reads
		defer wg.Done()
		var last uint32
		for {
			select {
			case <-stop:
				return
			default:
			}
			gen := s.store.Gen()
			if gen < last {
				t.Errorf("store generation went backwards: %d after %d", gen, last)
				return
			}
			last = gen
			_ = s.store.WALRecords() + s.store.SnapshotBytes()
		}
	}()
	var checkpoints atomic.Int32
	go func() { // an operator checkpointing mid-stream
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(srv.URL+"/admin/snapshot", "application/json", nil)
			if err != nil {
				t.Errorf("POST /admin/snapshot: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("POST /admin/snapshot = %d", resp.StatusCode)
				return
			}
			checkpoints.Add(1)
		}
	}()

	c := openStream(t, srv.URL+"/facts?stream=1&refreshEvery=3")
	const batches = 12
	for i := 0; i < batches; i++ {
		c.send(chunk(fmt.Sprintf("Writer%d", i), fmt.Sprintf("Poet%d", i)))
		if a := c.ack(); a.Batch != i+1 {
			t.Fatalf("ack %d has batch %d", i+1, a.Batch)
		}
		if i+1 == batches/2 {
			// Hold the stream open until a checkpoint has landed beside it:
			// a stream that outruns every snapshot would race nothing.
			deadline := time.Now().Add(30 * time.Second)
			for checkpoints.Load() == 0 {
				if time.Now().After(deadline) {
					close(stop)
					wg.Wait()
					t.Fatal("no checkpoint completed beside the stream")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	c.close()
	close(stop)
	wg.Wait()

	// 1 base + 24 streamed born_in facts, each with its live_in.
	if got := s.store.Facts(); got != 2*(1+2*batches) {
		t.Fatalf("store holds %d facts after the stream, want %d", got, 2*(1+2*batches))
	}
	re, err := probkb.OpenStore(s.store.Dir())
	if err != nil {
		t.Fatalf("recovering after checkpoints mid-stream: %v", err)
	}
	defer re.Close()
	if re.Facts() != s.store.Facts() {
		t.Fatalf("recovered %d facts, live store holds %d", re.Facts(), s.store.Facts())
	}
}

// generationOf reads the served generation off /stats.
func generationOf(t *testing.T, url string) uint64 {
	t.Helper()
	var stats struct {
		Epoch struct {
			Generation uint64 `json:"generation"`
		} `json:"epoch"`
	}
	if code := getJSON(t, url+"/stats", &stats); code != 200 {
		t.Fatalf("stats code %d", code)
	}
	return stats.Epoch.Generation
}

// TestBodyLimits: every non-streaming POST body is capped at
// maxBodyBytes; an oversize one answers 413 and publishes nothing, and
// the same request under the limit still gets through to its handler.
func TestBodyLimits(t *testing.T) {
	srv, _ := ingestTestServer(t)
	gen := generationOf(t, srv.URL)
	pad := strings.Repeat("x", maxBodyBytes)
	for _, tc := range []struct{ path, big, small string }{
		{"/facts", `{"facts":[{"rel":"born_in","x":"` + pad + `","xClass":"Writer","y":"Vienna","yClass":"Place","probability":0.9}]}`, `{"facts":[]}`},
		{"/sql", `{"q":"SELECT 1 -- ` + pad + `"}`, `{"q":""}`},
		{"/query/batch", `{"atoms":["born_in(` + pad + `, Vienna)"]}`, `{"atoms":[]}`},
		{"/admin/expand", `{"iterations":1,"pad":"` + pad + `"}`, `{"iterations":`},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.big))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		var out struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(out.Error, "limit") {
			t.Fatalf("oversize POST %s = %d %q, want 413 naming the limit", tc.path, resp.StatusCode, out.Error)
		}
		// Under the limit the handler's own validation answers, not the cap.
		resp, err = http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.small))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("small invalid POST %s = %d, want the handler's 400", tc.path, resp.StatusCode)
		}
	}
	if got := generationOf(t, srv.URL); got != gen {
		t.Fatalf("rejected requests moved the generation: %d → %d", gen, got)
	}
}

// TestFactsStreamChunkLimits: one streamed chunk carries at most
// maxChunkFacts facts and maxBodyBytes bytes. An oversize chunk ends
// the stream with an error line; the batches acked before it stay, and
// nothing of the oversize chunk is published.
func TestFactsStreamChunkLimits(t *testing.T) {
	errorLine := func(t *testing.T, c *streamClient) string {
		t.Helper()
		c.waitResp()
		var line struct {
			Error string `json:"error"`
		}
		if err := c.dec.Decode(&line); err != nil {
			t.Fatalf("decoding the error line: %v", err)
		}
		return line.Error
	}

	t.Run("facts", func(t *testing.T) {
		srv, _ := ingestTestServer(t)
		c := openStream(t, srv.URL+"/facts?stream=1")
		defer c.close()
		c.send(chunk("Freud"))
		a := c.ack()
		names := make([]string, maxChunkFacts+1)
		for i := range names {
			names[i] = fmt.Sprintf("W%d", i)
		}
		c.send(chunk(names...))
		if msg := errorLine(t, c); !strings.Contains(msg, "batch 2") || !strings.Contains(msg, "fact limit") {
			t.Fatalf("error line = %q, want batch 2 over the fact limit", msg)
		}
		if got := generationOf(t, srv.URL); got != a.Generation {
			t.Fatalf("generation %d after the rejected chunk, want the last acked %d", got, a.Generation)
		}
		var facts struct {
			Total int `json:"total"`
		}
		if code := getJSON(t, srv.URL+"/facts?rel=born_in", &facts); code != 200 || facts.Total != 2 {
			t.Fatalf("born_in facts after the rejected chunk: %d (code %d), want 2", facts.Total, code)
		}
	})

	t.Run("padding between chunks", func(t *testing.T) {
		srv, _ := ingestTestServer(t)
		c := openStream(t, srv.URL+"/facts?stream=1")
		defer c.close()
		c.send(chunk("Freud"))
		a := c.ack()
		// The budget also covers what separates chunks, and running out
		// there is an error, not a clean end of stream.
		go io.WriteString(c.pw, strings.Repeat(" ", 2*maxBodyBytes)+chunk("Mahler"))
		if msg := errorLine(t, c); !strings.Contains(msg, "after batch 1") || !strings.Contains(msg, "byte limit") {
			t.Fatalf("error line = %q, want the byte limit after batch 1", msg)
		}
		if got := generationOf(t, srv.URL); got != a.Generation {
			t.Fatalf("generation %d after the rejected padding, want the last acked %d", got, a.Generation)
		}
	})

	t.Run("bytes", func(t *testing.T) {
		srv, _ := ingestTestServer(t)
		gen := generationOf(t, srv.URL)
		c := openStream(t, srv.URL+"/facts?stream=1")
		defer c.close()
		// The server stops reading at the limit, so the tail of this write
		// may fail once it hangs up; only the answer matters.
		go io.WriteString(c.pw, chunk(strings.Repeat("x", 2*maxBodyBytes)))
		if msg := errorLine(t, c); !strings.Contains(msg, "batch 1") || !strings.Contains(msg, "byte limit") {
			t.Fatalf("error line = %q, want batch 1 over the byte limit", msg)
		}
		if got := generationOf(t, srv.URL); got != gen {
			t.Fatalf("generation %d after the rejected chunk, want %d", got, gen)
		}
	})
}
