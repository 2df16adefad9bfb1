package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"probkb"
	"probkb/internal/ground"
	"probkb/internal/ingest"
	"probkb/internal/kb"
	"probkb/internal/server"
)

const (
	// refreshEvery is also the slice: the stream is reported in groups of
	// this many batches, each holding one marginal refresh.
	refreshEvery  = 4
	ingestBurnin  = 20
	ingestSamples = 100
	// readerThink is the reader's pause between answers. A reader with
	// none takes a whole core from the two the writer grounds on, and the
	// absorb latency then measures mostly how the scheduler shares them.
	readerThink = time.Millisecond
	// traceBatches is how many batches each library-level replay absorbs.
	traceBatches = 8
	reopens      = 5
)

// ingestConfig is the served baseline: unconstrained (ExtendWith needs a
// converged expansion), a short Gibbs pass, durable when st is set.
func ingestConfig(seed int64, st *probkb.Store) probkb.Config {
	return probkb.Config{
		Engine: probkb.SingleNode, RunInference: true,
		GibbsBurnin: ingestBurnin, GibbsSamples: ingestSamples, Seed: seed, Persist: st,
	}
}

// ack is one NDJSON line of the streaming POST /facts response.
type ack struct {
	Batch      int    `json:"batch"`
	Generation uint64 `json:"generation"`
	Refreshed  bool   `json:"refreshed"`
	Done       bool   `json:"done"`
	Batches    int    `json:"batches"`
	Error      string `json:"error"`
}

// factJSON is one fact of a streamed chunk.
type factJSON struct {
	Rel         string  `json:"rel"`
	X           string  `json:"x"`
	XClass      string  `json:"xClass"`
	Y           string  `json:"y"`
	YClass      string  `json:"yClass"`
	Probability float64 `json:"probability"`
}

func chunkOf(batch []probkb.Fact) ([]byte, error) {
	facts := make([]factJSON, len(batch))
	for i, f := range batch {
		facts[i] = factJSON{f.Rel, f.X, f.XClass, f.Y, f.YClass, f.Probability}
	}
	return json.Marshal(map[string]any{"facts": facts})
}

// streamed is what one streamed POST /facts beside one reader measured.
type streamed struct {
	absorb []time.Duration // chunk sent → ack line read, per batch
	sent   []time.Time     // when each batch's chunk was sent
	acks   []ack
	wall   time.Duration // first chunk sent → done line read
	reads  []time.Duration
	misses int // reads answered with cached:false
	failed int
	err    error // first failure of either connection
}

// runStream sends the batches over one connection, each only after the
// previous ack, while a second connection loops GET /query over the pool
// until the stream's done line arrives.
func runStream(srvURL string, writer, reader *http.Client, batches [][]probkb.Fact, pool []atom, seed int64) *streamed {
	out := &streamed{}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	var readErr error
	go func() {
		defer close(readerDone)
		draw := zipfDraws(rngFor(seed, rngClient+1), len(pool))
		for {
			select {
			case <-stop:
				return
			default:
			}
			ans, d, err := fetchMarginal(reader, queryURL(srvURL, pool[draw()], false))
			if err != nil {
				out.failed++
				if readErr == nil {
					readErr = err
				}
				continue
			}
			out.reads = append(out.reads, d)
			if !ans.Cached {
				out.misses++
			}
			time.Sleep(readerThink)
		}
	}()
	out.err = func() error {
		pr, pw := io.Pipe()
		defer pw.Close()
		req, err := http.NewRequest("POST", fmt.Sprintf("%s/facts?stream=1&refreshEvery=%d", srvURL, refreshEvery), pr)
		if err != nil {
			return err
		}
		// The server sends its response headers with the first ack, so the
		// request has to be in flight before the first chunk is written.
		type response struct {
			resp *http.Response
			err  error
		}
		respCh := make(chan response, 1)
		go func() {
			resp, err := writer.Do(req)
			respCh <- response{resp, err}
		}()
		var body io.ReadCloser
		defer func() {
			if body != nil {
				body.Close()
			}
		}()
		var lines *bufio.Reader
		readAck := func() (ack, error) {
			var a ack
			if lines == nil {
				r := <-respCh
				if r.err != nil {
					return a, r.err
				}
				body = r.resp.Body
				if r.resp.StatusCode != http.StatusOK {
					return a, fmt.Errorf("POST /facts: status %d", r.resp.StatusCode)
				}
				lines = bufio.NewReader(body)
			}
			line, err := lines.ReadBytes('\n')
			if err != nil {
				return a, fmt.Errorf("reading ack: %w", err)
			}
			if err := json.Unmarshal(line, &a); err != nil {
				return a, fmt.Errorf("ack %q: %w", line, err)
			}
			if a.Error != "" {
				return a, fmt.Errorf("server: %s", a.Error)
			}
			return a, nil
		}
		start := time.Now()
		for _, b := range batches {
			chunk, err := chunkOf(b)
			if err != nil {
				return err
			}
			sent := time.Now()
			if _, err := pw.Write(chunk); err != nil {
				return err
			}
			a, err := readAck()
			if err != nil {
				return err
			}
			out.absorb = append(out.absorb, time.Since(sent))
			out.sent = append(out.sent, sent)
			out.acks = append(out.acks, a)
		}
		pw.Close()
		done, err := readAck()
		out.wall = time.Since(start)
		if err != nil {
			return err
		}
		if !done.Done || done.Batches != len(batches) {
			return fmt.Errorf("done line says %+v after %d batches", done, len(batches))
		}
		return nil
	}()
	close(stop)
	<-readerDone
	if out.err == nil {
		out.err = readErr
	}
	return out
}

// runIngest times writes beside reads: a durable, converged expansion
// behind the server, one connection streaming fresh facts and one
// looping point queries; afterwards the store is reopened from what the
// stream left on disk.
func runIngest(e env) (*result, error) {
	defer quietLogs()()
	res := newResult()
	setupStart := time.Now()
	k, _, err := synthesize(serveScale*e.scale, serveCorpusSeed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(e.outDir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "kb")
	createStart := time.Now()
	st, err := probkb.CreateStore(dir, k)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	create := time.Since(createStart)
	exp, err := k.Expand(ingestConfig(e.seed, st))
	if err != nil {
		return nil, err
	}
	if !exp.Stats().Converged {
		return nil, fmt.Errorf("baseline expansion did not converge")
	}
	nBatches := e.batches
	if e.trace {
		nBatches = min(nBatches, 2*traceBatches)
	}
	batches, err := factStream(exp, e.seed, nBatches, e.batchSize)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(server.New(k, exp, server.WithStore(st)))
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	writer, reader := newClient(), newClient()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	pool, _, err := warmPool(reader, srv.url, shuffledAtoms(exp, e.seed), e.pool)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", time.Since(setupStart).Seconds(), 1)

	s := runStream(srv.url, writer, reader, batches, pool, e.seed)
	res.attempted = len(batches) + len(s.reads) + s.failed
	res.failed = len(batches) - len(s.acks) + s.failed
	if s.err != nil {
		res.problems = append(res.problems, s.err.Error())
		return res, nil
	}
	for i, a := range s.acks {
		if a.Batch != i+1 || (i > 0 && a.Generation <= s.acks[i-1].Generation) {
			res.problems = append(res.problems, fmt.Sprintf("ack %d: batch %d generation %d after generation %d", i+1, a.Batch, a.Generation, s.acks[max(i-1, 0)].Generation))
			break
		}
	}
	// The operation is one streamed batch as the writing client sees it,
	// chunk sent to ack read, with its share of the refresh: any
	// refreshEvery consecutive batches hold exactly one refresh, so every
	// such group is a slice of the stream's steady state, and the
	// quietest one is reported (see setQuietest) as its wall time per
	// batch. (One batch's own absorb time repeats too badly for a bound:
	// batches differ twofold in the closure work they cause, each closure
	// iteration paying one O(KB) WAL diff. It is reported per layer, as
	// is everything the reader sees.)
	var perBatch []time.Duration
	for lo := 0; lo+refreshEvery <= len(s.absorb); lo++ {
		hi := lo + refreshEvery
		perBatch = append(perBatch, s.sent[hi-1].Add(s.absorb[hi-1]).Sub(s.sent[lo])/refreshEvery)
	}
	res.set("latency_ms", ms(sortedCopy(perBatch)[0]), len(perBatch))
	for i, a := range s.acks {
		if a.Refreshed != ((i+1)%refreshEvery == 0) {
			res.problems = append(res.problems, fmt.Sprintf("ack %d: refreshed=%t", i+1, a.Refreshed))
		}
	}
	// The last generation builds its local grounder (~8 MB here) on its
	// first cache miss; make sure it has had one before the heap is read.
	if _, _, err := fetchMarginal(reader, queryURL(srv.url, pool[0], true)); err != nil {
		return nil, err
	}
	res.set("heap_live_mb", heapLiveMB(), 1)

	// Split invariance: the streamed closure is the closure one library
	// extend of the whole stream reaches from the same baseline.
	var stats struct{ Expansion probkb.ExpandStats }
	body, _, err := get(reader, srv.url+"/stats")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		return nil, err
	}
	closure, err := oneShotClosure(k, e.seed, batches)
	if err != nil {
		return nil, err
	}
	if stats.Expansion.TotalFacts != closure {
		res.problems = append(res.problems, fmt.Sprintf("streamed closure has %d facts, one extend of the whole stream %d", stats.Expansion.TotalFacts, closure))
	}

	// Recovery: the serving handle is abandoned as it is — no Checkpoint,
	// no Close — and the directory reopened, replaying the WAL the stream
	// wrote. Every acknowledged fact must be there.
	if err := srv.stop(); err != nil {
		return nil, err
	}
	wal := st.WALRecords()
	var opens []time.Duration
	for i := 0; i == 0 || (e.trace && i < reopens); i++ {
		start := time.Now()
		re, err := probkb.OpenStore(dir)
		if err != nil {
			return nil, fmt.Errorf("reopening the store: %w", err)
		}
		opens = append(opens, time.Since(start))
		if i == 0 {
			recovered := re.KB()
			for _, b := range batches {
				for _, f := range b {
					if recovered.AddFact(f.Rel, f.X, f.XClass, f.Y, f.YClass, f.Probability) {
						res.problems = append(res.problems, fmt.Sprintf("acknowledged fact %s missing after OpenStore", f))
					}
				}
			}
		}
		if err := re.Close(); err != nil {
			return nil, err
		}
	}
	st0 := exp.Stats()
	res.notes = append(res.notes, fmt.Sprintf("baseline %d facts (%d inferred); streamed %d batches x %d facts -> closure %d; absorb p25 %.0f ms, p50 %.0f ms; %d reads beside the stream (p50 %.3f ms, %d misses); reopen p50 %.3f s over %d WAL records; %d groups of %d batches, one refresh each; whole stream %.1f facts/s",
		st0.TotalFacts, st0.InferredFacts, len(batches), e.batchSize, closure, ms(percentile(sortedCopy(s.absorb), 0.25)), ms(median(s.absorb)), len(s.reads), ms(median(s.reads)), s.misses, median(opens).Seconds(), wal, len(perBatch), refreshEvery, float64(len(batches)*e.batchSize)/s.wall.Seconds()))
	if !e.trace {
		return res, nil
	}

	absorb, all := sortedCopy(s.absorb), sortedCopy(s.reads)
	res.set("server.absorb_p25_ms", ms(percentile(absorb, 0.25)), len(absorb))
	res.set("server.absorb_p50_ms", ms(percentile(absorb, 0.50)), len(absorb))
	res.set("server.read_underwrite_p50_ms", ms(percentile(all, 0.50)), len(all))
	res.set("server.read_underwrite_p99_ms", ms(percentile(all, 0.99)), len(all))
	res.set("server.read_underwrite_miss_ratio", float64(s.misses)/float64(max(len(all), 1)), len(all))
	res.set("server.ingest_facts_per_s", float64(len(batches)*e.batchSize)/s.wall.Seconds(), len(batches))
	res.set("store.create_s", create.Seconds(), 1)
	res.set("store.snapshot_bytes_per_fact", float64(st.SnapshotBytes())/float64(k.Stats().Facts), 1)
	res.set("store.wal_records", float64(wal), 1)
	res.set("store.open_s", median(opens).Seconds(), len(opens))
	start := time.Now()
	if err := st.Checkpoint(); err != nil {
		return nil, err
	}
	res.set("store.checkpoint_s", time.Since(start).Seconds(), 1)
	return res, traceIngest(e, res, k, batches)
}

// oneShotClosure extends a fresh, store-less baseline with the whole
// stream at once and returns the closure's size.
func oneShotClosure(k *probkb.KB, seed int64, batches [][]probkb.Fact) (int, error) {
	cfg := ingestConfig(seed, nil)
	cfg.RunInference = false
	base, err := k.Expand(cfg)
	if err != nil {
		return 0, err
	}
	var all []probkb.Fact
	for _, b := range batches {
		all = append(all, b...)
	}
	one, err := base.ExtendWithDeferred(context.Background(), all)
	if err != nil {
		return 0, err
	}
	return one.Stats().TotalFacts, nil
}

// traceIngest replays the write path in-library, below HTTP and without
// a store, on the stream's first batches: through the Ingester (the
// library write path the server does not use yet), through
// ExtendWithDeferred (what the server calls), a RefreshMarginals after
// them, and through ground.Extend on a kb.Fork, which is what
// ExtendWithDeferred calls. Baselines are immutable, so the spans-off
// and spans-on passes absorb identical inputs.
func traceIngest(e env, res *result, k *probkb.KB, batches [][]probkb.Fact) error {
	ctx := context.Background()
	n := min(traceBatches, len(batches)/2)
	base, err := k.Expand(ingestConfig(e.seed, nil))
	if err != nil {
		return err
	}
	c, err := synthesizeInner(serveScale*e.scale, serveCorpusSeed)
	if err != nil {
		return err
	}
	work := c.KB.Fork()
	baseRes, err := ground.Ground(work, ground.Options{Ctx: ctx})
	if err != nil {
		return err
	}
	var extendAllocs uint64
	replay := func(l *laps) error {
		var err error
		in := probkb.NewIngester(base)
		for _, b := range batches[:n] {
			facts := make([]ingest.Fact, len(b))
			for i, f := range b {
				facts[i] = ingest.Fact{Rel: f.Rel, X: f.X, XClass: f.XClass, Y: f.Y, YClass: f.YClass, Probability: f.Probability}
			}
			l.do("bench.op", func() { l.do("ingest.absorb", func() { _, err = in.Absorb(ctx, facts) }) })
			if err != nil {
				return err
			}
		}
		pin := in.Current()
		cur := pin.Value()
		pin.Unpin()
		for _, b := range batches[n : 2*n] {
			before := mallocs()
			l.do("bench.op", func() { l.do("probkb.extend_deferred", func() { cur, err = cur.ExtendWithDeferred(ctx, b) }) })
			extendAllocs = mallocs() - before
			if err != nil {
				return err
			}
		}
		l.do("bench.op", func() { l.do("probkb.refresh", func() { _, err = cur.RefreshMarginals(ctx) }) })
		if err != nil {
			return err
		}
		curKB, curRes := work, baseRes
		for _, b := range batches[:n] {
			l.do("bench.op", func() {
				var next *kb.KB
				l.do("kb.fork", func() { next = curKB.Fork() })
				interned := make([]kb.Fact, len(b))
				for i, f := range b {
					cx, cy := next.Classes.Intern(f.XClass), next.Classes.Intern(f.YClass)
					x, y := next.Entities.Intern(f.X), next.Entities.Intern(f.Y)
					next.AddMember(cx, x)
					next.AddMember(cy, y)
					interned[i] = kb.Fact{Rel: next.AddRelation(f.Rel, cx, cy), X: x, XClass: cx, Y: y, YClass: cy, W: f.Probability}
				}
				l.do("ground.extend", func() {
					curRes, err = ground.Extend(next, curRes, interned, ground.Options{Ctx: ctx, SemiNaive: true, SkipFactors: true})
				})
				curKB = next
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	_, l, tr, err := replayTwice(res, replay)
	if err != nil {
		return err
	}
	res.set("ingest.absorb_ms", ms(median(l.d["ingest.absorb"])), n)
	res.set("probkb.extend_deferred_ms", ms(median(l.d["probkb.extend_deferred"])), n)
	res.set("probkb.extend_allocs", float64(extendAllocs), 1)
	res.set("probkb.refresh_s", sum(l.d["probkb.refresh"]).Seconds(), 1)
	res.set("kb.fork_us", us(median(l.d["kb.fork"])), n)
	res.set("ground.extend_ms", ms(median(l.d["ground.extend"])), n)
	return writeTrace(e, res, tr, sum(l.d["bench.op"]))
}
