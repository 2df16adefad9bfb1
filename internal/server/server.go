// Package server exposes an expanded knowledge base over HTTP — the
// "improving system responsivity" goal the paper gives for storing all
// inferred results (Section 2.2): queries hit the materialized
// expansion, never inference.
//
// # MVCC serving tier
//
// The server is a multi-version store over (KB, Expansion) snapshots.
// Every data request pins the current generation through an epoch
// manager (internal/epoch) for its whole lifetime — a pointer load and
// a refcount CAS, never a lock — and answers entirely from that frozen
// snapshot. Writers (POST /admin/expand, POST /facts) build generation
// N+1 off to the side on a copy-on-write fork of the KB and publish it
// with one atomic swap; in-flight readers keep serving generation N
// and are never blocked, torn, or retried. A failed or cancelled build
// publishes nothing. Old generations are reclaimed by refcount when
// their last reader unpins. Competing writers serialize on the one
// writer lock of the process — probkb.Ingester's, which readers never
// touch — and a streamed chunk lands through the same landing step
// (ingest.Lander) as a batch of the library's ingest pipeline: the
// server owns the wire format and the epoch manager, not a write path.
//
// Endpoints (all JSON unless noted):
//
//	GET    /healthz                       liveness probe (always 200)
//	GET    /readyz                        readiness probe: 503 while the server
//	                                      is still recovering/expanding, 200
//	                                      once an expansion is attached and
//	                                      SetReady was called
//	GET    /stats                         expansion statistics + epoch state
//	GET    /facts?rel=&x=&y=&inferred=&limit=
//	                                      facts, filterable by relation,
//	                                      arguments, and inferred flag
//	POST   /facts {"facts": [...]}        stream newly observed facts in:
//	                                      ExtendWith builds the next generation
//	                                      (semi-naive, cost scales with the
//	                                      delta) and publishes it; concurrent
//	                                      readers stay on their pinned
//	                                      generation throughout
//	POST   /facts?stream=1&refreshEvery=K chunked streaming ingest: the body is
//	                                      a sequence of {"facts": [...]} JSON
//	                                      objects; each chunk is absorbed as one
//	                                      deferred extend (facts + closure
//	                                      visible immediately, marginals stale)
//	                                      and acked with its own NDJSON line
//	                                      carrying the published generation and
//	                                      durable WAL sequence. refreshEvery=K
//	                                      refreshes marginals every K batches
//	                                      (0 = leave them stale). A mid-stream
//	                                      disconnect keeps every acked batch
//	                                      and publishes nothing for the one in
//	                                      flight — no torn generation
//	GET    /explain?rel=&x=&y=&depth=     derivation tree (text/plain)
//	GET    /query?atom=Rel(x,y)&depth=&radius=&markov=&burnin=&samples=&nocache=
//	                                      point query: local grounding +
//	                                      neighborhood Gibbs, cached per
//	                                      (atom, bounds) until the expansion
//	                                      is swapped; "marginal" is null when
//	                                      the atom is unknown/underivable or
//	                                      samples=-1 skipped inference
//	POST   /query/batch {"atoms": [...]}  many point queries answered against
//	                                      ONE pinned generation (shared knobs:
//	                                      depth/radius/markov/burnin/samples);
//	                                      identical in-flight lookups coalesce
//	                                      into a single grounding run
//	GET    /sql?q=SELECT...&analyze=1     run a SQL query (see probkb.QuerySQL)
//	                                      over the pinned generation's shared,
//	                                      read-only relational image — SELECT
//	                                      only; the answer names the generation;
//	                                      analyze=1 adds the EXPLAIN ANALYZE
//	                                      plan (estimates vs actuals) to the
//	                                      response and journals it
//	POST   /sql {"q": "...", "segments": N, "analyze": true}
//	                                      run a SQL query as a distributed
//	                                      plan (see probkb.QueryDistSQL);
//	                                      non-collocated joins are a 400,
//	                                      never a crash
//	GET    /metrics                       Prometheus text exposition, including
//	                                      Go runtime health and the epoch
//	                                      gauges (generation, live generations,
//	                                      outstanding pins) (text/plain)
//	GET    /debug/queries                 in-flight queries: id, kind, text,
//	                                      phase, elapsed, rows produced so far
//	DELETE /debug/queries/{id}            cancel an in-flight query; its request
//	                                      fails with 499 and a PartialError phase
//	GET    /debug/slow                    recent queries over the slow threshold,
//	                                      newest first, with analyzed plans
//	GET    /debug/incidents               watchdog incident reports, newest first
//	                                      (summaries; fetch one for the capture)
//	GET    /debug/incidents/{id}          one full incident: flight-recorder
//	                                      timeline, goroutine dump, metrics
//	                                      snapshot, active queries, offending
//	                                      query's plan
//	GET    /debug/traces                  recent pipeline span trees (text/plain)
//	GET    /debug/journal                 the served expansion's run journal events
//	GET    /debug/profile                 analyzed workload profile (phases, operator
//	                                      costs, per-segment skew, motions, Gibbs
//	                                      convergence timeline)
//	GET    /debug/pprof/*                 Go runtime profiles
//	POST   /admin/expand                  re-run the expansion pipeline (body
//	                                      selects iterations/inference); the
//	                                      served expansion swaps on success
//	POST   /admin/snapshot                checkpoint the attached durable
//	                                      store: fold its WAL into a fresh
//	                                      columnar snapshot (409 when the
//	                                      server runs without a store)
//
// Read endpoints sit behind admission control: SetMaxInFlight caps
// concurrently admitted data-plane requests, and overload answers 429
// with Retry-After instead of queueing without bound; rejections count
// in probkb_http_rejected_total and show in `probkb top`.
//
// Request bodies are bounded: a JSON body over 4 MiB (POST /facts,
// /sql, /query/batch, /admin/expand) answers 413, and a streamed chunk
// over 4 MiB or 4,096 facts ends the stream with an error line; in both
// cases nothing of the oversize request is published.
//
// Every endpoint runs behind middleware that records per-endpoint
// request counts and latency histograms (the /sql series are split by
// method: "GET /sql" vs "POST /sql"), an in-flight gauge, recovers
// handler panics into logged 500s, and emits a structured log line per
// request (see internal/obs). SQL, explain, point-query, extend, and
// expand requests additionally register in the active-query registry
// for the lifetime of the request.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"probkb"
	"probkb/internal/epoch"
	"probkb/internal/ingest"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

// statusClientClosedRequest reports a request whose query was cancelled
// (via DELETE /debug/queries/{id} or a client disconnect) — the nginx
// 499 convention, since no standard code covers it.
const statusClientClosedRequest = 499

// snapshot is one immutable generation of the serving state: a frozen
// KB (the generation's dictionaries, hierarchy, and base facts) and the
// expansion answering queries over it. Writers never mutate a published
// snapshot — they fork the KB, build, and publish a fresh one.
type snapshot struct {
	kb  *probkb.KB
	exp *probkb.Expansion
}

// Server serves one expansion per generation, MVCC-style.
type Server struct {
	// snaps is the epoch manager readers pin generations through. The
	// pending server publishes a nil snapshot as generation 1; Attach
	// publishes the first real one.
	snaps *epoch.Manager[*snapshot]
	// ing is the process's one writer, built at Attach: POST /facts,
	// POST /admin/expand and POST /admin/snapshot all run under its
	// lock, and it publishes through s.publish, into snaps. Readers
	// never take the lock. land is the landing step streamed chunks go
	// through; it owns the process's staleness counter.
	ing   *probkb.Ingester
	land  *ingest.Lander
	store *probkb.Store
	mux   *http.ServeMux
	ready atomic.Bool

	// Admission control: maxInFlight caps concurrently admitted
	// data-plane requests (0 = unlimited), admitted counts them. Excess
	// load sheds as 429 + Retry-After instead of queueing unboundedly.
	maxInFlight atomic.Int64
	admitted    atomic.Int64
}

// Option configures optional server wiring.
type Option func(*Server)

// WithStore attaches the durable store the served expansion persisted
// into, enabling POST /admin/snapshot.
func WithStore(st *probkb.Store) Option {
	return func(s *Server) { s.store = st }
}

// New builds the handler for an expanded KB, ready to serve.
func New(kb *probkb.KB, exp *probkb.Expansion, opts ...Option) *Server {
	s := NewPending()
	s.Attach(kb, exp, opts...)
	s.SetReady(true)
	return s
}

// NewPending builds a handler that can listen before its expansion
// exists: /healthz answers 200 and /readyz 503 until Attach and
// SetReady, while data endpoints answer 503. This is what lets the
// server binary bind its port first and recover/expand afterwards.
func NewPending() *Server {
	s := &Server{mux: http.NewServeMux(), snaps: epoch.New[*snapshot](nil, nil)}
	// data wires a read endpoint: instrumented, admission-controlled,
	// and pinned to one generation for the whole request.
	data := func(path string, h snapHandler) http.HandlerFunc {
		return instrument(path, s.admit(path, s.withSnap(h)))
	}
	s.mux.HandleFunc("GET /healthz", instrument("/healthz", s.handleHealth))
	s.mux.HandleFunc("GET /readyz", instrument("/readyz", s.handleReady))
	s.mux.HandleFunc("GET /stats", data("/stats", s.handleStats))
	s.mux.HandleFunc("GET /facts", data("/facts", s.handleFacts))
	s.mux.HandleFunc("POST /facts", instrument("POST /facts", s.admit("POST /facts", s.handleFactsPost)))
	s.mux.HandleFunc("GET /explain", data("/explain", s.handleExplain))
	s.mux.HandleFunc("GET /query", data("/query", s.handleQuery))
	s.mux.HandleFunc("POST /query/batch", data("/query/batch", s.handleQueryBatch))
	s.mux.HandleFunc("GET /sql", data("GET /sql", s.handleSQL))
	s.mux.HandleFunc("POST /sql", data("POST /sql", s.handleDistSQL))
	s.mux.HandleFunc("GET /metrics", instrument("/metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /debug/queries", instrument("/debug/queries", s.handleQueries))
	s.mux.HandleFunc("DELETE /debug/queries/{id}", instrument("/debug/queries", s.handleQueryCancel))
	s.mux.HandleFunc("GET /debug/slow", instrument("/debug/slow", s.handleSlow))
	s.mux.HandleFunc("GET /debug/incidents", instrument("/debug/incidents", s.handleIncidents))
	s.mux.HandleFunc("GET /debug/incidents/{id}", instrument("/debug/incidents", s.handleIncident))
	s.mux.HandleFunc("GET /debug/traces", instrument("/debug/traces", s.handleTraces))
	s.mux.HandleFunc("GET /debug/journal", instrument("/debug/journal", s.withSnap(s.handleJournal)))
	s.mux.HandleFunc("GET /debug/profile", instrument("/debug/profile", s.withSnap(s.handleProfile)))
	s.mux.HandleFunc("POST /admin/expand", instrument("/admin/expand", s.handleExpand))
	s.mux.HandleFunc("POST /admin/snapshot", instrument("/admin/snapshot", s.handleSnapshot))
	s.registerDebug()
	return s
}

// Attach installs the KB and expansion a pending server will serve as
// the first real generation — every later generation serves its
// expansion's KB(), which holds the same facts when exp was expanded
// from kb — builds the writer on top of it, and points the incident
// store's journal
// and plan-capture hooks at the serving tier: incidents opened from
// here on are journaled into the *current* generation's run journal,
// and a finding that names a SQL query gets its EXPLAIN plan captured
// against the current generation.
func (s *Server) Attach(kb *probkb.KB, exp *probkb.Expansion, opts ...Option) {
	for _, opt := range opts {
		opt(s)
	}
	s.ing = probkb.NewIngester(exp, probkb.WithPublish(func(next *probkb.Expansion) uint64 {
		return s.publish(next.KB(), next)
	}))
	s.land = ingest.NewLander(s.ing, nil)
	s.publish(kb, exp)
	obs.DefaultIncidents.SetPlanner(func(kind, text string) string {
		if kind != "sql" && kind != "dist-sql" {
			return ""
		}
		pin := s.snaps.Pin()
		defer pin.Unpin()
		snap := pin.Value()
		if snap == nil {
			return ""
		}
		plan, err := snap.kb.ExplainSQL(text)
		if err != nil {
			return ""
		}
		return plan
	})
}

// publish swaps in (kb, exp) as the next generation and re-points the
// incident journal at the new expansion's run record. Past Attach only
// the Ingester calls it, under the writer lock.
func (s *Server) publish(kb *probkb.KB, exp *probkb.Expansion) uint64 {
	gen := s.snaps.Publish(&snapshot{kb: kb, exp: exp})
	obs.DefaultIncidents.SetJournal(exp.Journal())
	return gen
}

// SetReady flips the /readyz state; data endpoints serve only while
// ready with an attached expansion.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// SetMaxInFlight re-caps admission control at runtime; n <= 0 lifts the
// cap. Requests already admitted are unaffected.
func (s *Server) SetMaxInFlight(n int) {
	if n < 0 {
		n = 0
	}
	s.maxInFlight.Store(int64(n))
}

// Epoch exposes the serving tier's epoch manager — the bench harness
// and tests assert on generation, pin, and reclamation counts.
func (s *Server) Epoch() *epoch.Manager[*snapshot] { return s.snaps }

// serving reports whether a real generation is attached and the server
// was marked ready.
func (s *Server) serving() bool {
	if !s.ready.Load() {
		return false
	}
	pin := s.snaps.Pin()
	defer pin.Unpin()
	return pin.Value() != nil
}

// snapHandler is a read handler bound to one pinned generation: snap is
// immutable for the duration of the call and gen is its epoch number.
type snapHandler func(w http.ResponseWriter, r *http.Request, snap *snapshot, gen uint64)

// withSnap gates a data handler on readiness and pins the current
// generation for the request's whole lifetime: everything the handler
// reads — dictionaries, fact tables, the marginal cache, the journal —
// comes from one immutable snapshot, no matter how many generations
// writers publish meanwhile.
func (s *Server) withSnap(h snapHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is not ready (still recovering or expanding)"))
			return
		}
		pin := s.snaps.Pin()
		defer pin.Unpin()
		snap := pin.Value()
		if snap == nil {
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is not ready (no expansion attached)"))
			return
		}
		h(w, r, snap, pin.Gen())
	}
}

// admit is the admission-control middleware for data-plane endpoints:
// when a cap is set and reached, the request is shed immediately with
// 429 + Retry-After rather than queued, keeping latency bounded for
// admitted requests under overload.
func (s *Server) admit(path string, h http.HandlerFunc) http.HandlerFunc {
	rejected := httpRejected.With(path)
	return func(w http.ResponseWriter, r *http.Request) {
		if max := s.maxInFlight.Load(); max > 0 {
			if s.admitted.Add(1) > max {
				s.admitted.Add(-1)
				rejected.Inc()
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests,
					fmt.Errorf("server at capacity (%d data requests in flight); retry shortly", max))
				return
			}
			defer s.admitted.Add(-1)
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before writing the header so an encoding failure can still
	// become a proper 500 instead of an empty 200.
	w.Header().Set("Content-Type", "application/json")
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// Request-size limits. Constants, not flags: nothing the server does
// needs a bigger request, and a limit nobody can lift is one no
// deployment forgets to set.
const (
	// maxBodyBytes bounds a non-streaming POST body (and, on the
	// streaming ingest path, the bytes of one chunk).
	maxBodyBytes = 4 << 20
	// maxChunkFacts bounds the facts of one streamed chunk: a chunk is
	// absorbed as one extend under the writer lock, so its size is how
	// long every other writer waits.
	maxChunkFacts = 4096
)

// decodeBody decodes a JSON request body of at most maxBodyBytes into
// v. On failure it has answered — 413 for an oversize body, 400 for a
// malformed one — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	return false
}

// chunkBudget meters a streamed body: it fails the read that would
// hand the decoder more than maxBodyBytes since the last refill, so one
// oversize chunk cannot be buffered whole before anything looks at it.
// The decoder's read-ahead into the next chunk is charged to the
// current one, which makes the limit lenient by up to one buffer, never
// stricter.
type chunkBudget struct {
	r    io.Reader
	left int64
}

var errChunkTooLarge = fmt.Errorf("chunk exceeds the %d-byte limit", maxBodyBytes)

func (c *chunkBudget) refill() { c.left = maxBodyBytes }

func (c *chunkBudget) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, errChunkTooLarge
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	return n, err
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness probe: distinct from /healthz (alive) so
// load balancers don't route queries to a server still recovering its
// store or running its initial expansion.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.serving() {
		// Retry-After tells probes and load balancers when to come back;
		// recovery and initial expansion usually finish within seconds.
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// epochJSON is the serving tier's epoch state in /stats.
type epochJSON struct {
	Generation uint64 `json:"generation"`
	Live       int64  `json:"liveGenerations"`
	Pins       int64  `json:"pins"`
	Reclaimed  uint64 `json:"reclaimedGenerations"`
}

// statsResponse is the /stats payload.
type statsResponse struct {
	KB        probkb.Stats       `json:"kb"`
	Expansion probkb.ExpandStats `json:"expansion"`
	Epoch     epochJSON          `json:"epoch"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request, snap *snapshot, gen uint64) {
	writeJSON(w, http.StatusOK, statsResponse{
		KB:        snap.kb.Stats(),
		Expansion: snap.exp.Stats(),
		Epoch: epochJSON{
			Generation: gen,
			Live:       s.snaps.Live(),
			Pins:       s.snaps.Pins(),
			Reclaimed:  s.snaps.Reclaimed(),
		},
	})
}

// factJSON is one fact in API responses. Probability is null for
// inferred facts when marginal inference was skipped (JSON has no NaN).
type factJSON struct {
	Rel         string   `json:"rel"`
	X           string   `json:"x"`
	XClass      string   `json:"xClass"`
	Y           string   `json:"y"`
	YClass      string   `json:"yClass"`
	Probability *float64 `json:"probability"`
	Inferred    bool     `json:"inferred"`
}

func toJSON(f probkb.Fact) factJSON {
	out := factJSON{
		Rel: f.Rel, X: f.X, XClass: f.XClass, Y: f.Y, YClass: f.YClass,
		Inferred: f.Inferred,
	}
	if !math.IsNaN(f.Probability) {
		p := f.Probability
		out.Probability = &p
	}
	return out
}

func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request, snap *snapshot, _ uint64) {
	q := r.URL.Query()
	limit := 100
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", ls))
			return
		}
		limit = n
	}
	var inferredFilter *bool
	if is := q.Get("inferred"); is != "" {
		v, err := strconv.ParseBool(is)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad inferred %q", is))
			return
		}
		inferredFilter = &v
	}

	page, total := snap.exp.FindLimit(q.Get("rel"), q.Get("x"), q.Get("y"), inferredFilter, limit)
	out := make([]factJSON, len(page))
	for i, f := range page {
		out[i] = toJSON(f)
	}
	writeJSON(w, http.StatusOK, map[string]any{"total": total, "facts": out})
}

// handleFactsPost streams newly observed facts into the KB: ExtendWith
// builds the next generation on a copy-on-write fork (semi-naive, cost
// scales with the delta) and on success the server publishes it.
// Readers pinned to older generations are untouched throughout — they
// never see a partial extend, and a failed or cancelled build (the
// request registers as kind "extend", so DELETE /debug/queries/{id}
// can kill it) publishes nothing. With ?stream=1 the body is a sequence
// of {"facts": [...]} chunks, each absorbed and acked independently
// (handleFactsStream).
func (s *Server) handleFactsPost(w http.ResponseWriter, r *http.Request) {
	if !s.serving() {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is not ready (still recovering or expanding)"))
		return
	}
	if r.URL.Query().Get("stream") == "1" {
		s.handleFactsStream(w, r)
		return
	}
	var req struct {
		Facts []ingest.Fact `json:"facts"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, aq := obs.Queries.Begin(r.Context(), "extend", fmt.Sprintf("extend +%d facts", len(req.Facts)))
	defer obs.Queries.Finish(aq)
	aq.SetPhase("queue")
	next, gen, err := s.ing.Extend(ctx, req.Facts)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"added":      len(req.Facts),
		"generation": gen,
		"stats":      next.Stats(),
	})
}

// handleFactsStream is the chunked ingest path: each decoded
// {"facts": [...]} chunk is one sealed batch for the landing step
// (ingest.Lander.Land, the call the library pipeline's writer makes) —
// the batch's facts and semi-naive closure publish immediately;
// marginals refresh every refreshEvery batches — and one flushed ack
// line. Only the queue and batcher are skipped: the client sealed the
// batches, and it waits for each ack. The loop is
// strictly decode → absorb → ack, so by the time a client reads ack N,
// batches 1..N are published and (with a store) durable; a disconnect
// between chunks loses nothing, and a disconnect mid-absorb cancels
// that extend before it publishes.
func (s *Server) handleFactsStream(w http.ResponseWriter, r *http.Request) {
	refreshEvery := 0
	if re := r.URL.Query().Get("refreshEvery"); re != "" {
		n, err := strconv.Atoi(re)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad refreshEvery %q", re))
			return
		}
		refreshEvery = n
	}
	ctx, aq := obs.Queries.Begin(r.Context(), "extend", "extend stream")
	defer obs.Queries.Finish(aq)

	// HTTP/1.1 is half-duplex by default: writing the response headers
	// drains the rest of the request body first, which would deadlock
	// against a client that waits for ack N before sending chunk N+1.
	// Full-duplex lets each ack line go out while the body stays open.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("streaming unsupported on this connection: %w", err))
		return
	}
	// Full duplex also stops net/http from draining the body before the
	// response, so a stream that ends early leaves it unread. Closed only
	// after the handler returns, it would be drained there, and its end
	// would start the connection's read-ahead for the next request while
	// the server's own read is about to run: "invalid concurrent
	// Body.Read call". Closing it here drains it while the handler still
	// owns the connection, as a half-duplex response does.
	defer r.Body.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	line := func(v any) {
		enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
	}

	body := &chunkBudget{r: r.Body}
	dec := json.NewDecoder(body)
	batch := 0
	for body.refill(); dec.More(); body.refill() {
		var req struct {
			Facts []ingest.Fact `json:"facts"`
		}
		aq.SetPhase("decode")
		if err := dec.Decode(&req); err != nil {
			line(map[string]string{"error": fmt.Sprintf("batch %d: bad chunk: %v", batch+1, err)})
			return
		}
		batch++
		if len(req.Facts) > maxChunkFacts {
			line(map[string]string{"error": fmt.Sprintf("batch %d: chunk of %d facts exceeds the %d-fact limit", batch, len(req.Facts), maxChunkFacts)})
			return
		}
		// A landed batch is published and durable, so it is acked even
		// when its refresh then failed; the error line follows the ack.
		ack, err := s.land.Land(ctx, req.Facts, refreshEvery)
		if ack.Batch != 0 {
			ack.Batch = batch
			aq.AddRows(ack.Facts)
			line(ack)
		}
		if err != nil {
			line(map[string]string{"error": fmt.Sprintf("batch %d: %v", batch, err)})
			return
		}
	}
	if body.left <= 0 {
		// The budget ran out between chunks (nothing but whitespace for
		// maxBodyBytes): say so instead of reporting a clean end.
		line(map[string]string{"error": fmt.Sprintf("after batch %d: %v", batch, errChunkTooLarge)})
		return
	}
	line(map[string]any{"done": true, "batches": batch})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, snap *snapshot, _ uint64) {
	q := r.URL.Query()
	rel, x, y := q.Get("rel"), q.Get("x"), q.Get("y")
	if rel == "" || x == "" || y == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("explain needs rel, x, y"))
		return
	}
	depth := 4
	if ds := q.Get("depth"); ds != "" {
		n, err := strconv.Atoi(ds)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad depth %q", ds))
			return
		}
		depth = n
	}
	_, aq := obs.Queries.Begin(r.Context(), "explain", fmt.Sprintf("explain %s(%s, %s)", rel, x, y))
	defer obs.Queries.Finish(aq)
	aq.SetPhase("run")
	text, err := snap.exp.Explain(rel, x, y, depth)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

// checkpoint folds the attached store's WAL into a fresh columnar
// snapshot, so the next recovery loads one file, then runs after. The
// store is single-writer, and every other writer of it — a streamed
// batch appending to the WAL the checkpoint is about to retire — holds
// the writer lock, so this does too (and publishes nothing); after runs
// under it because even reading the store's mirror (Facts) needs it.
func (s *Server) checkpoint(after func(st *probkb.Store) error) error {
	_, _, err := s.ing.Update(func(*probkb.Expansion) (*probkb.Expansion, error) {
		if err := s.store.Checkpoint(); err != nil {
			return nil, err
		}
		return nil, after(s.store)
	})
	return err
}

// Close is the exit path of a serving process with a store: a final
// checkpoint, then the store closes — still under the writer lock, so a
// request cut off mid-batch that unwinds late finds a closed store (an
// error, nothing torn), never a store closing under it. Without a
// store, or before Attach, there is nothing to do.
func (s *Server) Close() error {
	if !s.serving() || s.store == nil {
		return nil
	}
	return s.checkpoint((*probkb.Store).Close)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if !s.serving() || s.store == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("no durable store attached (start with -persist)"))
		return
	}
	var resp map[string]any
	err := s.checkpoint(func(st *probkb.Store) error {
		resp = map[string]any{
			"gen":           st.Gen(),
			"walRecords":    st.WALRecords(),
			"snapshotBytes": st.SnapshotBytes(),
			"facts":         st.Facts(),
			"dir":           st.Dir(),
		}
		return nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request, snap *snapshot, gen uint64) {
	query := r.URL.Query().Get("q")
	if query == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing q parameter"))
		return
	}
	analyze := r.URL.Query().Get("analyze") == "1"
	ctx, aq := obs.Queries.Begin(r.Context(), "sql", query)
	defer obs.Queries.Finish(aq)
	aq.SetPhase("run")

	start := time.Now()
	res, planText, planNode, err := snap.kb.QuerySQLAnalyze(ctx, query)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	s.noteQuery(r, aq, snap.exp, time.Since(start), planText, planNode)
	payload := map[string]any{"columns": res.Columns, "rows": res.Rows, "generation": gen}
	if analyze {
		payload["plan"] = planText
		journalAnalyzed(snap.exp, aq, query, time.Since(start), planNode)
	}
	writeJSON(w, http.StatusOK, payload)
}

// handleDistSQL runs a SELECT as a distributed MPP plan. Invalid plans
// — including joins whose inputs are not collocated, which once
// panicked deep inside the MPP layer — come back as a 400 with the
// planner's error; the process stays up.
func (s *Server) handleDistSQL(w http.ResponseWriter, r *http.Request, snap *snapshot, gen uint64) {
	var req struct {
		Q        string `json:"q"`
		Segments int    `json:"segments"`
		Analyze  bool   `json:"analyze"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Q == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing q field"))
		return
	}
	ctx, aq := obs.Queries.Begin(r.Context(), "dist-sql", req.Q)
	defer obs.Queries.Finish(aq)
	aq.SetPhase("run")

	start := time.Now()
	res, planText, planNode, err := snap.kb.QueryDistSQLAnalyze(ctx, req.Q, req.Segments)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	s.noteQuery(r, aq, snap.exp, time.Since(start), planText, planNode)
	payload := map[string]any{"columns": res.Columns, "rows": res.Rows, "generation": gen}
	if req.Analyze {
		payload["plan"] = planText
		journalAnalyzed(snap.exp, aq, req.Q, time.Since(start), planNode)
	}
	writeJSON(w, http.StatusOK, payload)
}

// writeQueryError maps a failed query onto a response: a cancellation
// (PartialError) becomes a 499 naming the interrupted phase; anything
// else is the planner's or executor's fault and stays a 400.
func writeQueryError(w http.ResponseWriter, err error) {
	var pe *probkb.PartialError
	if errors.As(err, &pe) {
		writeJSON(w, statusClientClosedRequest, map[string]string{
			"error": err.Error(),
			"phase": pe.Phase,
		})
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

// noteQuery feeds a finished query into the slow-query log: requests
// over the threshold retain their analyzed plan and emit a slow_query
// journal event into the generation that served them.
func (s *Server) noteQuery(r *http.Request, aq *obs.ActiveQuery, exp *probkb.Expansion, elapsed time.Duration, planText string, planNode *journal.PlanNode) {
	if aq == nil {
		return
	}
	slow := obs.DefaultSlowLog.Note(r.Context(), obs.SlowQuery{
		ID: aq.ID(), Kind: aq.Kind(), Text: aq.Text(), Elapsed: elapsed, Plan: planText,
	})
	if slow && planNode != nil {
		exp.Journal().Emit(journal.TypeSlowQuery, journal.AnalyzedQuery{
			ID: aq.ID(), Kind: aq.Kind(), Query: aq.Text(),
			Seconds: elapsed.Seconds(), Plan: *planNode,
		})
	}
}

// journalAnalyzed records an analyze=1 request's profiled plan in the
// serving generation's journal (nil-safe when the expansion has none).
func journalAnalyzed(exp *probkb.Expansion, aq *obs.ActiveQuery, query string, elapsed time.Duration, planNode *journal.PlanNode) {
	if aq == nil || planNode == nil {
		return
	}
	exp.Journal().Emit(journal.TypeQueryAnalyzed, journal.AnalyzedQuery{
		ID: aq.ID(), Kind: aq.Kind(), Query: query,
		Seconds: elapsed.Seconds(), Plan: *planNode,
	})
}

// handleQueries lists the in-flight queries, oldest first.
func (s *Server) handleQueries(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"queries": obs.Queries.List()})
}

// handleQueryCancel cancels one in-flight query by registry ID. The
// cancelled request itself unwinds with a 499; this endpoint returns
// whether the ID was found.
func (s *Server) handleQueryCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !obs.Queries.Cancel(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no in-flight query %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelled", "id": id})
}

// handleSlow serves the retained slow-query records, newest first.
func (s *Server) handleSlow(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ns": obs.DefaultSlowLog.Threshold(),
		"queries":      obs.DefaultSlowLog.List(),
	})
}

// incidentSummary is the /debug/incidents listing view: the header of
// an incident without its bulky captures.
type incidentSummary struct {
	ID       string    `json:"id"`
	Time     time.Time `json:"time"`
	Detector string    `json:"detector"`
	Summary  string    `json:"summary"`
	QueryID  string    `json:"query_id,omitempty"`
}

// handleIncidents lists watchdog incidents, newest first. Like
// /debug/queries it is not readiness-gated: incidents during recovery
// or the initial expansion are exactly what an operator wants to see.
func (s *Server) handleIncidents(w http.ResponseWriter, _ *http.Request) {
	all := obs.DefaultIncidents.List()
	out := make([]incidentSummary, len(all))
	for i, inc := range all {
		out[i] = incidentSummary{
			ID: inc.ID, Time: inc.Time, Detector: inc.Detector,
			Summary: inc.Summary, QueryID: inc.QueryID,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"incidents": out})
}

// handleIncident serves one full incident report.
func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	inc := obs.DefaultIncidents.Get(id)
	if inc == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no incident %q", id))
		return
	}
	writeJSON(w, http.StatusOK, inc)
}

// handleExpand re-runs the expansion pipeline on the served KB and, on
// success, publishes the fresh expansion as the next generation —
// readers pinned to the old one keep serving it lock-free for as long
// as their requests last. The request registers in the active-query
// registry (kind "expand"), so a runaway expansion shows in
// /debug/queries and DELETE /debug/queries/{id} cancels it through the
// same PartialError path ExpandContext uses; a cancelled or failed
// expansion publishes nothing.
func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	if !s.serving() {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server is not ready (still recovering or expanding)"))
		return
	}
	var req struct {
		Iterations int   `json:"iterations"`
		Inference  bool  `json:"inference"`
		Burnin     int   `json:"burnin"`
		Samples    int   `json:"samples"`
		Seed       int64 `json:"seed"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	desc := fmt.Sprintf("expand iterations=%d inference=%v samples=%d", req.Iterations, req.Inference, req.Samples)
	ctx, aq := obs.Queries.Begin(r.Context(), "expand", desc)
	defer obs.Queries.Finish(aq)
	cfg := probkb.Config{
		Engine:        probkb.SingleNode,
		MaxIterations: req.Iterations,
		RunInference:  req.Inference,
		GibbsBurnin:   req.Burnin,
		GibbsSamples:  req.Samples,
		Seed:          req.Seed,
		OnIteration: func(it probkb.IterationStats) {
			aq.SetPhase("ground")
			aq.AddRows(it.NewFacts)
		},
		OnGibbsSweep: func(probkb.GibbsSweep) { aq.SetPhase("infer") },
	}
	aq.SetPhase("queue")
	exp, gen, err := s.ing.Update(func(*probkb.Expansion) (*probkb.Expansion, error) {
		aq.SetPhase("ground")
		// The served KB, pinned under the writer lock so the newest: the
		// facts the served lineage was handed, never a pre-cleaned copy.
		pin := s.snaps.Pin()
		defer pin.Unpin()
		return pin.Value().kb.ExpandContext(ctx, cfg)
	})
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"stats": exp.Stats(), "generation": gen})
}
