package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"sync"
	"time"

	"probkb"
	"probkb/internal/engine"
	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/infer"
	"probkb/internal/kb"
	"probkb/internal/obs"
	"probkb/internal/server"
)

const (
	serveScale = 0.25
	// serveCorpusSeed fixes the KB the serving workloads serve: it is
	// their fixture, and --seed drives the traffic against it. (What a
	// batch costs to absorb depends on the corpus's rule structure by
	// +-12%, which would otherwise be most of that workload's spread.)
	serveCorpusSeed = 42
	serveClients    = 2
	// marginalTolerance is how far two answers for one atom may differ.
	marginalTolerance = 0.05
)

// httpServer is an in-process probkb server on a loopback listener.
type httpServer struct {
	url     string
	srv     *http.Server
	done    chan error
	stopped sync.Once
	stopErr error
}

func startServer(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to return;
// later calls return the first call's error.
func (s *httpServer) stop() error {
	s.stopped.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.stopErr = s.srv.Shutdown(ctx)
		if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) && s.stopErr == nil {
			s.stopErr = err
		}
	})
	return s.stopErr
}

// newClient returns a client that owns exactly one connection, so that
// serveClients clients are serveClients connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// quietLogs drops the server's per-request INFO lines, which would
// measure stderr and not the server. The returned func restores them.
func quietLogs() func() {
	prev := obs.Logger()
	obs.SetLogger(obs.NewTextLogger(io.Discard, slog.LevelWarn))
	return func() { obs.SetLogger(prev) }
}

// get fetches url and returns the body and the wall time from sending
// the request to reading its last byte.
func get(c *http.Client, url string) ([]byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.Get(url)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return body, d, nil
}

// queryAnswer is the part of a GET /query response the checks read.
type queryAnswer struct {
	Marginal *float64 `json:"marginal"`
	Cached   bool     `json:"cached"`
}

func queryURL(base string, a atom, nocache bool) string {
	u := base + "/query?atom=" + url.QueryEscape(a.String())
	if nocache {
		u += "&nocache=1"
	}
	return u
}

// fetchMarginal runs one point query over HTTP and checks the answer is
// a probability.
func fetchMarginal(c *http.Client, url string) (queryAnswer, time.Duration, error) {
	var ans queryAnswer
	body, d, err := get(c, url)
	if err != nil {
		return ans, 0, err
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return ans, 0, fmt.Errorf("GET %s: %w", url, err)
	}
	if ans.Marginal == nil || !(*ans.Marginal >= 0 && *ans.Marginal <= 1) {
		return ans, 0, fmt.Errorf("GET %s: marginal not in [0,1]: %.200s", url, body)
	}
	return ans, d, nil
}

// warmPool queries atoms through the cached path until n of them have
// answered with a marginal, and returns those with their answers: the
// pool the timed section draws from and the reference its answers must
// agree with. Atoms the local proof bound cannot derive are skipped.
func warmPool(c *http.Client, base string, atoms []atom, n int) ([]atom, []float64, error) {
	var pool []atom
	var ref []float64
	for _, a := range atoms {
		if len(pool) == n {
			break
		}
		ans, _, err := fetchMarginal(c, queryURL(base, a, false))
		if err != nil {
			continue
		}
		pool = append(pool, a)
		ref = append(ref, *ans.Marginal)
	}
	if len(pool) == 0 {
		return nil, nil, fmt.Errorf("no atom of %d answered with a marginal", len(atoms))
	}
	return pool, ref, nil
}

// requester issues one request and returns its latency.
type requester func() (time.Duration, error)

// closedLoop gives each client its own requester (built by mk from the
// client and its own random stream) and runs them back to back for n
// slices of sliceLen: a client sends its next request only when the
// previous answer has arrived. The latencies of the answered requests
// come back by the slice they finished in.
func closedLoop(n int, sliceLen time.Duration, clients []*http.Client, seed int64, mk func(*http.Client, *rand.Rand) requester) (slices [][]time.Duration, failed int, firstErr error) {
	perClient := make([][][]time.Duration, len(clients))
	fails := make([]int, len(clients))
	errs := make([]error, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			mine := make([][]time.Duration, n)
			next := mk(c, rngFor(seed, rngClient+i))
			for {
				d, err := next()
				at := int(time.Since(start) / sliceLen)
				if at >= n {
					break
				}
				if err != nil {
					fails[i]++
					if errs[i] == nil {
						errs[i] = err
					}
					continue
				}
				mine[at] = append(mine[at], d)
			}
			perClient[i] = mine
		}(i, c)
	}
	wg.Wait()
	slices = make([][]time.Duration, n)
	for j := range slices {
		for i := range clients {
			slices[j] = append(slices[j], perClient[i][j]...)
		}
	}
	for i := range clients {
		failed += fails[i]
		if firstErr == nil {
			firstErr = errs[i]
		}
	}
	return slices, failed, firstErr
}

// serveKind selects what the point-serve clients ask for.
type serveKind int

const (
	serveCached serveKind = iota
	serveCold
	serveSQL
)

// slicing cuts the timed window of runSeconds into slices long enough
// for a steady median of the kind's requests (some 8,000 cached, 500
// cold or 30 sql requests each) and short enough that some of them miss
// the machine's noisy seconds.
func (k serveKind) slicing(e env) (n int, sliceLen time.Duration) {
	n = 4 * runSeconds
	if k == serveSQL {
		n = 2 * runSeconds
	}
	return n, time.Duration(float64(runSeconds*time.Second) / float64(n) * e.scale)
}

func sqlStatement(entity int) string {
	return fmt.Sprintf("SELECT T.R, T.y, T.w FROM T WHERE T.x = %d", entity)
}

func serveConfig(seed int64) probkb.Config {
	return probkb.Config{Engine: probkb.SingleNode, ApplyConstraints: true, MaxIterations: constrainedIterations, Seed: seed}
}

// served is a point-serve workload's set-up: a constrained expansion
// without global inference behind an in-process server, two clients,
// and (for the query kinds) the warmed atom pool with its answers.
type served struct {
	k       *probkb.KB
	exp     *probkb.Expansion
	handler *server.Server
	srv     *httpServer
	clients []*http.Client
	pool    []atom
	ref     []float64
}

func (s *served) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.srv.stop()
}

func setupServe(e env, kind serveKind) (*served, error) {
	k, _, err := synthesize(serveScale*e.scale, serveCorpusSeed)
	if err != nil {
		return nil, err
	}
	exp, err := k.Expand(serveConfig(e.seed))
	if err != nil {
		return nil, err
	}
	s := &served{k: k, exp: exp, handler: server.New(k, exp)}
	if s.srv, err = startServer(s.handler); err != nil {
		return nil, err
	}
	for i := 0; i < serveClients; i++ {
		s.clients = append(s.clients, newClient())
	}
	if kind != serveSQL {
		// One warm pass: fills the cache the cached clients hit, and fixes
		// the answers every later response must agree with.
		if s.pool, s.ref, err = warmPool(s.clients[0], s.srv.url, shuffledAtoms(exp, e.seed), e.pool); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// runServe times reads against an idle writer, over HTTP, from two
// closed-loop clients.
func runServe(e env, kind serveKind) (*result, error) {
	defer quietLogs()()
	res := newResult()
	setupStart := time.Now()
	s, err := setupServe(e, kind)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res.set("setup_s", time.Since(setupStart).Seconds(), 1)

	// query builds the requester of the two /query kinds: draw picks the
	// next atom of the pool, and every answer must agree with the warm
	// pass's answer for that atom.
	query := func(c *http.Client, draw func() int, cached bool) requester {
		return func() (time.Duration, error) {
			i := draw()
			ans, d, err := fetchMarginal(c, queryURL(s.srv.url, s.pool[i], !cached))
			if err == nil && (ans.Cached != cached || math.Abs(*ans.Marginal-s.ref[i]) > marginalTolerance) {
				err = fmt.Errorf("%s: cached=%t marginal %v, warm pass answered %v", s.pool[i], ans.Cached, *ans.Marginal, s.ref[i])
			}
			return d, err
		}
	}
	entities := s.k.Stats().Entities
	var mu sync.Mutex
	sqlRows := map[int]int{} // a sample of entity → rows answered, checked below
	var mk func(*http.Client, *rand.Rand) requester
	switch kind {
	case serveCached:
		mk = func(c *http.Client, rng *rand.Rand) requester { return query(c, zipfDraws(rng, len(s.pool)), true) }
	case serveCold:
		mk = func(c *http.Client, rng *rand.Rand) requester {
			return query(c, func() int { return rng.Intn(len(s.pool)) }, false)
		}
	case serveSQL:
		mk = func(c *http.Client, rng *rand.Rand) requester {
			return func() (time.Duration, error) {
				id := rng.Intn(entities)
				body, d, err := get(c, s.srv.url+"/sql?q="+url.QueryEscape(sqlStatement(id)))
				if err != nil {
					return 0, err
				}
				var out struct{ Rows [][]string }
				if err := json.Unmarshal(body, &out); err != nil {
					return 0, err
				}
				mu.Lock()
				if len(sqlRows) < 16 {
					sqlRows[id] = len(out.Rows)
				}
				mu.Unlock()
				return d, nil
			}
		}
	}
	n, sliceLen := kind.slicing(e)
	slices, failed, firstErr := closedLoop(n, sliceLen, s.clients, e.seed, mk)
	answered := 0
	for _, durs := range slices {
		answered += len(durs)
	}
	res.attempted, res.failed = answered+failed, failed
	if firstErr != nil {
		res.problems = append(res.problems, "first failed request: "+firstErr.Error())
	}
	for id, rows := range sqlRows {
		want, err := s.k.QuerySQL(sqlStatement(id))
		if err != nil {
			return nil, err
		}
		if len(want.Rows) != rows {
			res.problems = append(res.problems, fmt.Sprintf("sql: entity %d answered %d rows over HTTP, %d in-library", id, rows, len(want.Rows)))
		}
	}
	if answered == 0 {
		return res, nil
	}
	whole := wholeWindow(slices, time.Duration(n)*sliceLen)
	if e.trace {
		// The window as it was, then the layers beneath it.
		res.setWindow(whole)
		return res, traceServe(e, kind, res, s)
	}
	res.setQuietest(slices)
	res.set("heap_live_mb", heapLiveMB(), 1)
	st := s.exp.Stats()
	res.notes = append(res.notes, fmt.Sprintf("served %d facts (%d inferred); pool %d atoms, %d entities; %d clients; %d requests in %d slices of %v; whole window: %v",
		st.TotalFacts, st.InferredFacts, len(s.pool), entities, serveClients, answered, n, sliceLen, whole))
	return res, nil
}

// Sizes of the traced passes: enough calls for a steady median, few
// enough that the span file stays small.
const (
	traceCachedOps = 2000
	traceColdOps   = 300
	traceSQLOps    = 40
	tracePinOps    = 1_000_000
	traceHTTPOps   = 2000
)

// traceServe is the traced run of a point-serve workload. It replays the
// workload's requests in-library from one caller, calling what the
// handler calls; the cold kind goes one level further down and calls
// what QueryLocal calls.
func traceServe(e env, kind serveKind, res *result, s *served) error {
	ctx := context.Background()
	rng := rngFor(e.seed, rngClient)
	var replay func(l *laps) error
	switch kind {
	case serveCached:
		draw := zipfDraws(rng, len(s.pool))
		order := make([]int, traceCachedOps)
		for i := range order {
			order[i] = draw()
		}
		replay = func(l *laps) error {
			for _, i := range order {
				a := s.pool[i]
				var m probkb.Marginal
				var err error
				l.do("bench.op", func() {
					l.do("probkb.querylocal", func() { m, err = s.exp.QueryLocal(ctx, probkb.PointQuery{Rel: a.Rel, X: a.X, Y: a.Y}) })
				})
				if err != nil || !m.Cached {
					return fmt.Errorf("cached replay of %s: cached=%t err=%v", a, m.Cached, err)
				}
			}
			return nil
		}
	case serveCold:
		local, err := newLocalLayers(e)
		if err != nil {
			return err
		}
		atoms := s.pool[:min(traceColdOps, len(s.pool))]
		// The whole call first, as the handler makes it.
		var whole []time.Duration
		before := mallocs()
		for _, a := range atoms {
			start := time.Now()
			if _, err := s.exp.QueryLocal(ctx, probkb.PointQuery{Rel: a.Rel, X: a.X, Y: a.Y, NoCache: true}); err != nil {
				return err
			}
			whole = append(whole, time.Since(start))
		}
		res.set("probkb.querylocal_cold_allocs", float64(mallocs()-before)/float64(len(atoms)), len(atoms))
		res.set("probkb.querylocal_cold_us", us(median(whole)), len(whole))
		replay = func(l *laps) error {
			for i, a := range atoms {
				p, err := local.query(l, a, e.seed)
				if err != nil {
					return err
				}
				if math.Abs(p-s.ref[i]) > marginalTolerance {
					return fmt.Errorf("layer replay of %s: marginal %v, served %v", a, p, s.ref[i])
				}
			}
			return nil
		}
	case serveSQL:
		entities := s.k.Stats().Entities
		ids := make([]int, traceSQLOps)
		for i := range ids {
			ids[i] = rng.Intn(entities)
		}
		replay = func(l *laps) error {
			for _, id := range ids {
				var err1, err2 error
				l.do("bench.op", func() {
					l.do("sql.plan", func() { _, err1 = s.k.ExplainSQL(sqlStatement(id)) })
					l.do("sql.exec", func() { _, err2 = s.k.QuerySQL(sqlStatement(id)) })
				})
				if err1 != nil || err2 != nil {
					return fmt.Errorf("sql replay of entity %d: %v %v", id, err1, err2)
				}
			}
			return nil
		}
	}
	off, l, tr, err := replayTwice(res, replay)
	if err != nil {
		return err
	}

	switch kind {
	case serveCached:
		lib := median(off.d["probkb.querylocal"])
		res.set("probkb.querylocal_cached_us", us(lib), len(off.d["probkb.querylocal"]))
		pin := l.tr.do("epoch.pin", func() {
			for i := 0; i < tracePinOps; i++ {
				s.handler.Epoch().Pin().Unpin()
			}
		})
		res.set("epoch.pin_ns", float64(pin.Nanoseconds())/tracePinOps, tracePinOps)
		// The HTTP floor from one client: /healthz is transport plus the
		// instrument middleware, /stats adds admission and the pin, and a
		// cached /query adds the handler around the library hit.
		c := s.clients[0]
		p50 := func(url func() string) (time.Duration, error) {
			durs := make([]time.Duration, traceHTTPOps)
			for i := range durs {
				_, d, err := get(c, url())
				if err != nil {
					return 0, err
				}
				durs[i] = d
			}
			return median(durs), nil
		}
		healthz, err := p50(func() string { return s.srv.url + "/healthz" })
		if err != nil {
			return err
		}
		stats, err := p50(func() string { return s.srv.url + "/stats" })
		if err != nil {
			return err
		}
		draw := zipfDraws(rng, len(s.pool))
		cached, err := p50(func() string { return queryURL(s.srv.url, s.pool[draw()], false) })
		if err != nil {
			return err
		}
		res.set("server.healthz_p50_us", us(healthz), traceHTTPOps)
		res.set("server.stats_p50_us", us(stats), traceHTTPOps)
		res.set("server.http_overhead_cached_us", us(cached-lib), traceHTTPOps)
	case serveCold:
		res.set("ground.local_us", us(median(l.d["ground.local"])), len(l.d["ground.local"]))
		res.set("factor.subgraph_us", us(median(l.d["factor.subgraph"])), len(l.d["factor.subgraph"]))
		res.set("infer.local_us", us(median(l.d["infer.local"])), len(l.d["infer.local"]))
	case serveSQL:
		res.set("sql.plan_us", us(median(l.d["sql.plan"])), len(l.d["sql.plan"]))
		res.set("sql.exec_us", us(median(l.d["sql.exec"])), len(l.d["sql.exec"]))
	}
	return writeTrace(e, res, tr, sum(l.d["bench.op"]))
}

// localLayers is the state Expansion.QueryLocal keeps behind the public
// API, rebuilt from the layers: the constrained grounding's KB and the
// local grounder over its evidence rows.
type localLayers struct {
	kb *kb.KB
	lg *ground.LocalGrounder
}

func newLocalLayers(e env) (*localLayers, error) {
	c, err := synthesizeInner(serveScale*e.scale, serveCorpusSeed)
	if err != nil {
		return nil, err
	}
	pass, err := expandLayers(newLaps(nil), "bench.setup", c, batchSpec{}, e.seed)
	if err != nil {
		return nil, err
	}
	// Evidence is the rows whose fact ID predates inference, selected by
	// ID because constraint deletions shift rows.
	t := pass.res.Facts
	var rows []int32
	for r, id := range t.Int32Col(kb.TPiI) {
		if int(id) < pass.res.BaseFacts {
			rows = append(rows, int32(r))
		}
	}
	base := engine.NewTable("T_base", kb.FactsSchema())
	base.AppendRowsFrom(t, rows)
	return &localLayers{kb: pass.kb, lg: ground.NewLocal(pass.kb.Rules, base, ground.Options{SemiNaive: true})}, nil
}

// query replays Expansion.queryLocalMiss for one atom: local grounding,
// the local factor graph, the target's Markov neighbourhood (radius 0 =
// its whole component) and Gibbs over it.
func (ll *localLayers) query(l *laps, a atom, seed int64) (p float64, err error) {
	rel, ok1 := ll.kb.RelDict.Lookup(a.Rel)
	x, ok2 := ll.kb.Entities.Lookup(a.X)
	y, ok3 := ll.kb.Entities.Lookup(a.Y)
	if !ok1 || !ok2 || !ok3 {
		return 0, fmt.Errorf("layer replay: %s has an unknown symbol", a)
	}
	p = math.NaN()
	l.do("bench.op", func() {
		var lres *ground.LocalResult
		l.do("ground.local", func() {
			lres, err = ll.lg.Ground(context.Background(), ground.LocalQuery{
				Rel: rel, X: x, Y: y, Depth: ground.DefaultLocalDepth, Radius: ground.DefaultLocalDepth + 1,
			})
		})
		if err != nil {
			return
		}
		if len(lres.TargetRows) == 0 {
			err = fmt.Errorf("layer replay: %s not derivable", a)
			return
		}
		row := lres.TargetRows[0]
		for _, r := range lres.TargetRows {
			if r < lres.BaseFacts { // an observed row needs no sampling
				p = lres.Facts.Float64Col(kb.TPiW)[r]
				return
			}
		}
		var g *factor.Graph
		l.do("factor.build", func() { g, err = factor.FromResult(lres.Result) })
		if err != nil {
			return
		}
		v, ok := g.VarOf(lres.Facts.Int32Col(kb.TPiI)[row])
		if !ok {
			err = fmt.Errorf("layer replay: %s has no graph variable", a)
			return
		}
		var sub *factor.Graph
		l.do("factor.subgraph", func() { sub = g.Subgraph(v, 0) })
		var probs []float64
		l.do("infer.local", func() {
			probs, _, err = infer.MarginalsContext(context.Background(), sub, infer.Options{Seed: seed})
		})
		if err != nil {
			return
		}
		sv, _ := sub.VarOf(g.FactID(v))
		p = probs[sv]
	})
	return p, err
}
