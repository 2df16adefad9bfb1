package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"probkb"
	"probkb/internal/ingest"
	"probkb/internal/obs"
	"probkb/internal/proptest"
)

// The HTTP stream's leg of the batteries that prove the write path: the
// split-invariance property cases of internal/proptest driven over POST
// /facts?stream=1, and the writers-vs-writers race.

func jsonChunk(t *testing.T, facts []ingest.Fact) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{"facts": facts})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// ackTuple is what a landing reports independently of who numbers
// generations and batches.
func ackTuple(a ingest.Ack) string {
	return fmt.Sprintf("facts=%d added=%d derived=%d stale=%d refreshed=%t", a.Facts, a.Added, a.Derived, a.StaleBatches, a.Refreshed)
}

// streamIngestCase drives one generated case over HTTP, chunked by the
// case's splits: the cancel point is a client that dies mid-chunk (it
// must publish nothing), after which a fresh stream carries on and
// finally re-streams everything, as RunIngest does on the library side.
func streamIngestCase(t *testing.T, c *proptest.IngestCase) ([]ingest.Ack, uint64, error) {
	exp, err := proptest.IngestBase().Expand(probkb.Config{Engine: probkb.SingleNode})
	if err != nil {
		return nil, 0, err
	}
	s := New(proptest.IngestBase(), exp)
	srv := httptest.NewServer(s)
	defer srv.Close()

	stream := c.Stream()
	var acks []ingest.Ack
	sc := openStream(t, srv.URL+"/facts?stream=1")
	defer func() { sc.close() }()
	idx := 0
	for bi, sz := range c.Splits {
		batch := stream[idx : idx+sz]
		idx += sz
		if c.CancelAt == bi+1 {
			gen := s.Epoch().Current()
			whole := jsonChunk(t, batch)
			sc.send(whole[:len(whole)/2])
			sc.pw.CloseWithError(io.ErrUnexpectedEOF)
			if sc.resp != nil {
				io.Copy(io.Discard, sc.resp.Body)
				sc.resp.Body.Close()
			}
			// The handler has seen the torn chunk once its query is gone.
			for deadline := time.Now().Add(5 * time.Second); len(obs.Queries.List()) > 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					return nil, 0, fmt.Errorf("batch %d: stream handler still running after the disconnect", bi+1)
				}
			}
			if g := s.Epoch().Current(); g != gen {
				return nil, 0, fmt.Errorf("batch %d: torn chunk published generation %d (was %d)", bi+1, g, gen)
			}
			sc = openStream(t, srv.URL+"/facts?stream=1")
			continue
		}
		sc.send(jsonChunk(t, batch))
		acks = append(acks, sc.ack())
	}
	if c.CancelAt > 0 {
		sc.send(jsonChunk(t, stream))
		acks = append(acks, sc.ack())
	}
	pin := s.Epoch().Pin()
	defer pin.Unpin()
	return acks, proptest.ClosureFingerprint(pin.Value().exp), nil
}

func checkStreamIngest(t *testing.T, c *proptest.IngestCase) error {
	want, err := proptest.ReplayIngest(c)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	lib, libClosure, err := proptest.RunIngest(c)
	if err != nil {
		return fmt.Errorf("library leg: %w", err)
	}
	got, closure, err := streamIngestCase(t, c)
	if err != nil {
		return fmt.Errorf("HTTP leg: %w", err)
	}
	if closure != want || libClosure != want {
		return fmt.Errorf("closure fingerprints: HTTP %x, library %x, t=0 oracle %x", closure, libClosure, want)
	}
	if len(got) != len(lib) {
		return fmt.Errorf("HTTP leg acked %d batches, library leg %d", len(got), len(lib))
	}
	for i := range got {
		if ackTuple(got[i]) != ackTuple(lib[i]) {
			return fmt.Errorf("ack %d: HTTP {%s} != library {%s}", i+1, ackTuple(got[i]), ackTuple(lib[i]))
		}
		if i > 0 && got[i].Generation <= got[i-1].Generation {
			return fmt.Errorf("ack %d: generation %d not after %d", i+1, got[i].Generation, got[i-1].Generation)
		}
	}
	return nil
}

// TestFactsStreamSplitInvariance: across the property battery's
// randomized streams, batch partitions and cancel points, the HTTP
// stream and the library's Ingester are the same write path — the same
// ack sequence, and the t=0 oracle's closure — and a mid-chunk
// disconnect publishes nothing. Failures shrink with the battery's own
// shrinker.
func TestFactsStreamSplitInvariance(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	for seed := int64(1); seed <= int64(n); seed++ {
		c := proptest.NewIngestCase(seed)
		if err := checkStreamIngest(t, c); err != nil {
			minCase := proptest.ShrinkIngest(c, func(x *proptest.IngestCase) bool { return checkStreamIngest(t, x) != nil })
			t.Fatalf("seed %d: %v\n\nshrunk case:\n%s\noriginal case:\n%s", seed, err, minCase, c)
		}
	}
}

func tupleSet(e *probkb.Expansion) []string {
	var out []string
	for _, f := range e.Facts() {
		out = append(out, fmt.Sprintf("%s(%s:%s, %s:%s)", f.Rel, f.X, f.XClass, f.Y, f.YClass))
	}
	sort.Strings(out)
	return out
}

// TestWritersRaceOneLock: two streams with different refresh
// thresholds, checkpoints and re-expansions all interleave on the one
// writer lock. Every writer sees generations strictly increase, no
// generation is handed out twice, old generations are reclaimed once
// the writers quiesce, and the durable store — reopened — holds exactly
// the served closure.
//
// The store leg runs without POST /admin/expand: a re-expansion grounds
// the served KB, which never holds streamed facts (ground.Extend
// appends them to TΠ only), under a Config without the store — so past
// one, streamed facts are gone from the served closure and later
// batches are not durable. That predates the one write path and waits
// on a fact-provenance model (ROADMAP item 5b).
func TestWritersRaceOneLock(t *testing.T) {
	t.Run("streams+expand+snapshot", func(t *testing.T) { writersRace(t, true) })
	t.Run("streams+snapshot/durable", func(t *testing.T) { writersRace(t, false) })
}

func writersRace(t *testing.T, withExpand bool) {
	srv, s := ingestTestServer(t)
	var (
		mu   sync.Mutex
		gens = map[uint64]string{}
		wg   sync.WaitGroup
	)
	claim := func(who string, gen uint64) {
		mu.Lock()
		defer mu.Unlock()
		if prev, dup := gens[gen]; dup {
			t.Errorf("generation %d handed to both %s and %s", gen, prev, who)
		}
		gens[gen] = who
	}
	post := func(who, path, body, genField string, n int) {
		defer wg.Done()
		var last uint64
		for i := 0; i < n; i++ {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("%s: %v", who, err)
				return
			}
			var out map[string]any
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s = %d %v", who, resp.StatusCode, out)
				return
			}
			if genField == "" {
				continue
			}
			gen := uint64(out[genField].(float64))
			if gen <= last {
				t.Errorf("%s generation %d not after %d", who, gen, last)
			}
			last = gen
			claim(who, gen)
		}
	}
	wg.Add(1)
	go post("snapshot", "/admin/snapshot", "", "", 4)
	if withExpand {
		wg.Add(1)
		go post("expand", "/admin/expand", `{"inference": false}`, "generation", 3)
	}
	// The two streams are concurrent where it matters — their handlers
	// contend for the lock — while the client side stays on the test's
	// goroutine: both chunks go out before either ack is read.
	type stream struct {
		who  string
		c    *streamClient
		last uint64
	}
	streams := []*stream{
		{who: "a", c: openStream(t, srv.URL+"/facts?stream=1&refreshEvery=2")},
		{who: "b", c: openStream(t, srv.URL+"/facts?stream=1&refreshEvery=3")},
	}
	for i := 0; i < 6; i++ {
		for _, st := range streams {
			st.c.send(chunk(fmt.Sprintf("%s_%d", st.who, i)))
		}
		for _, st := range streams {
			a := st.c.ack()
			if a.Batch != i+1 || a.Added != 1 || a.Generation <= st.last {
				t.Errorf("%s ack %d = %+v after generation %d", st.who, i+1, a, st.last)
			}
			st.last = a.Generation
			claim(st.who, a.Generation)
		}
	}
	for _, st := range streams {
		st.c.close()
	}
	wg.Wait()

	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); s.Epoch().Live() != 1 || s.Epoch().Pins() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("at quiesce: %d live generations, %d pins; want 1 and 0", s.Epoch().Live(), s.Epoch().Pins())
		}
	}
	var top uint64
	for g := range gens {
		top = max(top, g)
	}
	if cur := s.Epoch().Current(); cur < top {
		t.Fatalf("served generation %d behind acked generation %d", cur, top)
	}
	if withExpand {
		return
	}

	pin := s.Epoch().Pin()
	served := tupleSet(pin.Value().exp)
	pin.Unpin()
	dir := s.store.Dir()
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := probkb.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	reexp, err := re.KB().Expand(probkb.Config{Engine: probkb.SingleNode})
	if err != nil {
		t.Fatal(err)
	}
	if durable := tupleSet(reexp); strings.Join(durable, "\n") != strings.Join(served, "\n") {
		t.Fatalf("reopened store holds %d facts, served closure %d:\n%v\nvs\n%v", len(durable), len(served), durable, served)
	}
}
