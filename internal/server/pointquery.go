package server

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"probkb"
	"probkb/internal/obs"
)

// marginalJSON is the GET /query payload. Marginal is null — not NaN,
// which JSON cannot carry — when the atom is unknown, underivable
// within the bounds, or inference was skipped (samples<0); check
// "found" to tell the cases apart.
type marginalJSON struct {
	Atom         string   `json:"atom"`
	Rel          string   `json:"rel"`
	X            string   `json:"x"`
	Y            string   `json:"y"`
	Marginal     *float64 `json:"marginal"`
	Found        bool     `json:"found"`
	Observed     bool     `json:"observed"`
	Cached       bool     `json:"cached"`
	Coalesced    bool     `json:"coalesced"`
	Generation   uint64   `json:"generation"`
	Depth        int      `json:"depth"`
	Radius       int      `json:"radius"`
	SeedFacts    int      `json:"seedFacts"`
	LocalFacts   int      `json:"localFacts"`
	LocalVars    int      `json:"localVars"`
	LocalFactors int      `json:"localFactors"`
	Collected    int      `json:"collected"`
	ElapsedMS    float64  `json:"elapsedMs"`
}

func marginalToJSON(atom string, m probkb.Marginal) marginalJSON {
	out := marginalJSON{
		Atom: atom, Rel: m.Rel, X: m.X, Y: m.Y,
		Found: m.Found, Observed: m.Observed,
		Cached: m.Cached, Coalesced: m.Coalesced,
		Generation: m.Generation, Depth: m.Depth, Radius: m.Radius,
		SeedFacts: m.SeedFacts, LocalFacts: m.LocalFacts,
		LocalVars: m.LocalVars, LocalFactors: m.LocalFactors,
		Collected: m.Collected,
		ElapsedMS: float64(m.Elapsed) / float64(time.Millisecond),
	}
	if !math.IsNaN(m.Probability) {
		p := m.Probability
		out.Marginal = &p
	}
	return out
}

// intParam parses an optional integer query parameter into *dst,
// reporting a 400-worthy error on garbage. Negative values pass
// through — samples=-1 is the documented way to skip inference.
func intParam(q url.Values, name string, dst *int) error {
	s := q.Get(name)
	if s == "" {
		return nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return fmt.Errorf("bad %s %q", name, s)
	}
	*dst = n
	return nil
}

// handleQuery answers GET /query?atom=Rel(x,y): a point query via
// local grounding and neighborhood Gibbs (probkb.QueryLocal), never the
// global fixpoint, against the generation pinned for this request.
// Optional knobs: depth, radius (grounding bounds), markov (Gibbs
// neighborhood radius), burnin, samples (samples=-1 skips inference),
// nocache=1 (bypass the marginal cache). Cancellation via DELETE
// /debug/queries/{id} unwinds as a 499.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, snap *snapshot, _ uint64) {
	qv := r.URL.Query()
	atom := qv.Get("atom")
	if atom == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("query needs atom=Rel(x, y)"))
		return
	}
	rel, x, y, err := probkb.ParseAtom(atom)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pq := probkb.PointQuery{Rel: rel, X: x, Y: y}
	for name, dst := range map[string]*int{
		"depth": &pq.Depth, "radius": &pq.Radius, "markov": &pq.MarkovRadius,
		"burnin": &pq.Burnin, "samples": &pq.Samples,
	} {
		if err := intParam(qv, name, dst); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if nc := qv.Get("nocache"); nc != "" {
		v, err := strconv.ParseBool(nc)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad nocache %q", nc))
			return
		}
		pq.NoCache = v
	}

	ctx, aq := obs.Queries.Begin(r.Context(), "query", atom)
	defer obs.Queries.Finish(aq)
	start := time.Now()
	m, err := snap.exp.QueryLocal(ctx, pq)
	s.noteQuery(r, aq, snap.exp, time.Since(start), "", nil)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, marginalToJSON(atom, m))
}

// maxBatchAtoms bounds one POST /query/batch request; a bigger batch is
// a 400, not a slow request admission control can't see inside.
const maxBatchAtoms = 256

// batchEntryJSON is one atom's answer in a /query/batch response; Error
// is set (and the marginal zero) when that atom failed individually.
type batchEntryJSON struct {
	marginalJSON
	Error string `json:"error,omitempty"`
}

// handleQueryBatch answers POST /query/batch: many point queries
// against ONE pinned generation, so the whole batch observes a single
// consistent snapshot no matter what writers publish mid-flight. Atoms
// share the bounds knobs and run concurrently; identical concurrent
// lookups coalesce into one grounding run (Marginal.Coalesced). Per-
// atom failures come back inline; a cancelled request unwinds as 499.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request, snap *snapshot, gen uint64) {
	var req struct {
		Atoms   []string `json:"atoms"`
		Depth   int      `json:"depth"`
		Radius  int      `json:"radius"`
		Markov  int      `json:"markov"`
		Burnin  int      `json:"burnin"`
		Samples int      `json:"samples"`
		NoCache bool     `json:"nocache"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Atoms) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf(`no atoms: body must be {"atoms": ["Rel(x, y)", ...]}`))
		return
	}
	if len(req.Atoms) > maxBatchAtoms {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d atoms exceeds the %d-atom limit", len(req.Atoms), maxBatchAtoms))
		return
	}
	pqs := make([]probkb.PointQuery, len(req.Atoms))
	for i, atom := range req.Atoms {
		rel, x, y, err := probkb.ParseAtom(atom)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("atoms[%d]: %w", i, err))
			return
		}
		pqs[i] = probkb.PointQuery{
			Rel: rel, X: x, Y: y,
			Depth: req.Depth, Radius: req.Radius, MarkovRadius: req.Markov,
			Burnin: req.Burnin, Samples: req.Samples, NoCache: req.NoCache,
		}
	}

	ctx, aq := obs.Queries.Begin(r.Context(), "query", fmt.Sprintf("batch of %d atoms", len(req.Atoms)))
	defer obs.Queries.Finish(aq)
	aq.SetPhase("run")
	start := time.Now()

	// Fan the batch out with bounded concurrency; every worker reads the
	// same pinned snapshot, so ordering within the batch is irrelevant.
	results := make([]batchEntryJSON, len(pqs))
	errs := make([]error, len(pqs))
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for i := range pqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			m, err := snap.exp.QueryLocal(ctx, pqs[i])
			if err != nil {
				errs[i] = err
				results[i] = batchEntryJSON{Error: err.Error()}
				return
			}
			results[i] = batchEntryJSON{marginalJSON: marginalToJSON(req.Atoms[i], m)}
			aq.AddRows(1)
		}(i)
	}
	wg.Wait()
	s.noteQuery(r, aq, snap.exp, time.Since(start), "", nil)

	// A cancelled request (client gone, or DELETE /debug/queries/{id})
	// fails wholesale with the 499 contract rather than returning a
	// batch of per-atom cancellation errors.
	if ctx.Err() != nil {
		for _, err := range errs {
			if err != nil {
				writeQueryError(w, err)
				return
			}
		}
		writeQueryError(w, &probkb.PartialError{Phase: "query-local", Err: ctx.Err()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen,
		"results":    results,
	})
}
