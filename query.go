// Point queries: "what is P(Rel(x, y))?" answered by grounding only the
// atom's local proof graph and sampling only its Markov neighborhood,
// instead of paying full-KB closure + global Gibbs per lookup. This is
// the ProPPR / Wick-et-al. counterpart to Expand: approximate on
// purpose (Depth and Radius bound the proof), exact when the bounds
// cover the atom's component, and cheap enough for millions of lookups.
package probkb

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/infer"
	"probkb/internal/kb"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
	"probkb/internal/quality"
)

var (
	queryLocalTotal = obs.NewCounterVec("probkb_query_local_total",
		"Point queries answered by the local grounding path, by cache outcome.", "cache")
	queryLocalSeconds = obs.NewHistogram("probkb_query_local_seconds",
		"Wall time of cache-miss local point queries (grounding + neighborhood inference).", nil)
)

// ParseAtom parses a query atom of the form "Rel(x, y)".
func ParseAtom(s string) (rel, x, y string, err error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open <= 0 || !strings.HasSuffix(s, ")") {
		return "", "", "", fmt.Errorf("probkb: atom must look like Rel(x, y): %q", s)
	}
	args := strings.Split(s[open+1:len(s)-1], ",")
	if len(args) != 2 {
		return "", "", "", fmt.Errorf("probkb: atom needs exactly two arguments: %q", s)
	}
	rel = strings.TrimSpace(s[:open])
	x = strings.TrimSpace(args[0])
	y = strings.TrimSpace(args[1])
	if rel == "" || x == "" || y == "" {
		return "", "", "", fmt.Errorf("probkb: atom has an empty part: %q", s)
	}
	return rel, x, y, nil
}

// PointQuery asks for the marginal of one atom without touching the
// global fixpoint. Zero values mean defaults throughout, so
// PointQuery{Rel: "bornIn", X: "alice", Y: "paris"} is a complete query.
type PointQuery struct {
	Rel  string
	X, Y string
	// Depth bounds the local proof (rule backward-reachability and
	// closure iterations); 0 means ground.DefaultLocalDepth. Radius
	// bounds the evidence ball around {X, Y}; 0 means Depth+1.
	Depth  int
	Radius int
	// MarkovRadius bounds the inference neighborhood around the target
	// in the local factor graph; 0 means the whole connected component.
	MarkovRadius int
	// Burnin and Samples size the sampling run a neighborhood too large
	// to enumerate gets (a smaller one's marginal is exact and depends
	// on neither); 0 falls back to the expansion Config, then to the
	// infer defaults (100 / 500). Samples < 0 skips inference: the query
	// reports whether the atom is derivable, with a NaN marginal.
	Burnin  int
	Samples int
	// NoCache bypasses the marginal cache (no read, no store).
	NoCache bool
}

// Marginal is a point query's answer.
type Marginal struct {
	Rel  string
	X, Y string
	// Probability is P(atom): the stored weight for an observed fact,
	// the neighborhood's marginal for a derived one (exact when the
	// neighborhood is small enough to enumerate, a Gibbs estimate
	// otherwise), NaN when the atom is unknown/underivable within the
	// bounds or inference was skipped.
	Probability float64
	// Found reports that the atom is observed or derivable within the
	// bounds; Observed that it is a base (evidence) fact.
	Found    bool
	Observed bool
	// Cached reports a marginal-cache hit; Coalesced that this call
	// waited on an identical in-flight query and shares its answer
	// (request batching: N concurrent identical lookups pay for one
	// grounding run). Generation identifies the expansion that computed
	// the answer (bumps on ExtendWith).
	Cached     bool
	Coalesced  bool
	Generation uint64
	// Depth and Radius are the resolved grounding bounds.
	Depth  int
	Radius int
	// Shape of the local computation: evidence ball size, local closure
	// size, neighborhood factor graph, rules in scope, closure
	// iterations, and post-burn-in Gibbs sweeps collected (the requested
	// Samples when the neighborhood was enumerated instead).
	SeedFacts      int
	LocalFacts     int
	LocalVars      int
	LocalFactors   int
	RulesReachable int
	Iterations     int
	Collected      int
	// Elapsed is this call's wall time (cache hits included).
	Elapsed time.Duration
}

// queryKey keys the answer table: the interned atom plus every knob
// that changes the answer. The expansion generation is implicit — each
// Expansion owns its table, so a new generation starts empty.
type queryKey struct {
	rel, x, y       int32
	depth, radius   int
	markov          int
	burnin, samples int
}

// queryCacheLimit bounds the finished answers an expansion keeps; past
// it an arbitrary finished one is evicted (the workload is point lookups
// with heavy repetition, so any victim works).
const queryCacheLimit = 4096

// answer is one cell of the answer table. While the lookup that
// inserted it (the leader) computes it, done is open; the leader then
// stores the finished answer m with a nil done, or removes the cell when
// it failed, and closes the channel.
type answer struct {
	m    Marginal
	done chan struct{}
}

// expansionGen numbers expansions process-wide so cached marginals are
// attributable to the generation that computed them.
var expansionGen atomic.Uint64

// newExpansion is the one constructor every expansion path uses: it
// assigns the generation point answers carry and sets up the cells of
// what the generation derives on first reference.
func newExpansion(k *kb.KB, res *ground.Result, cfg Config, jr *journal.Writer, checker *quality.Checker) *Expansion {
	e := &Expansion{
		kb:      k,
		res:     res,
		cfg:     cfg,
		jr:      jr,
		checker: checker,
		gen:     expansionGen.Add(1),
		answers: make(map[queryKey]answer),
	}
	e.factorGraph = sync.OnceValues(func() (*factor.Graph, error) { return factor.FromResult(res) })
	e.localGrounder = sync.OnceValue(e.newLocalGrounder)
	return e
}

// Generation identifies this expansion for cache-freshness checks: a
// new expansion (Expand, ExtendWith, /admin/expand) always has a new
// generation, so a Marginal whose Generation differs is stale.
func (e *Expansion) Generation() uint64 { return e.gen }

// newLocalGrounder builds the query-local grounder over this
// expansion's evidence: the facts grounding did not derive. Derived facts
// of *prior* rounds count as evidence here exactly as ExtendWith treats
// them. The evidence is a prefix of TΠ, which the grounder reads in
// place: a published expansion's TΠ is never written again but for its
// weights.
func (e *Expansion) newLocalGrounder() *ground.LocalGrounder {
	return ground.NewLocalFor(e.kb.Rules, e.res, ground.Options{
		Workers:   e.cfg.EngineWorkers,
		SemiNaive: true,
	})
}

// QueryLocal answers a point query against this expansion's evidence:
// local grounding (rules backward-reachable from the atom, evidence
// ball around its entities) followed by Gibbs over the atom's Markov
// neighborhood. The global fixpoint is never consulted — an Expansion
// produced with RunInference false and even MaxIterations 1 serves
// point queries at full fidelity within the query bounds.
//
// Answers are cached per (atom, bounds, sampling shape); the cache dies
// with the expansion, so ExtendWith invalidates it wholesale. Negative
// answers (unknown or underivable atoms) cache too. Safe for concurrent
// use: symbol resolution is read-only and each query grounds into its
// own tables.
func (e *Expansion) QueryLocal(ctx context.Context, q PointQuery) (Marginal, error) {
	start := time.Now()
	m := Marginal{Rel: q.Rel, X: q.X, Y: q.Y, Generation: e.gen, Probability: math.NaN()}

	// A knob left zero (or, except Samples, negative) takes the next
	// default in line.
	depth := cmp.Or(max(q.Depth, 0), ground.DefaultLocalDepth)
	radius := cmp.Or(max(q.Radius, 0), depth+1)
	m.Depth, m.Radius = depth, radius
	burnin := cmp.Or(max(q.Burnin, 0), max(e.cfg.GibbsBurnin, 0), 100)
	samples := cmp.Or(q.Samples, e.cfg.GibbsSamples, 500)

	// Resolve the atom read-only: Intern would race with concurrent
	// queries, and an unknown symbol cannot name a derivable fact.
	rel, okR := e.kb.RelDict.Lookup(q.Rel)
	x, okX := e.kb.Entities.Lookup(q.X)
	y, okY := e.kb.Entities.Lookup(q.Y)
	if !okR || !okX || !okY {
		m.Elapsed = time.Since(start)
		queryLocalTotal.With("miss").Inc()
		return m, nil
	}

	key := queryKey{rel: rel, x: x, y: y, depth: depth, radius: radius,
		markov: q.MarkovRadius, burnin: burnin, samples: samples}
	if q.NoCache {
		return e.queryLocalMiss(ctx, q, key, m, start)
	}
	coalesced := false
	for {
		e.qmu.RLock()
		c, ok := e.answers[key]
		e.qmu.RUnlock()
		if ok && c.done == nil {
			hit := c.m
			hit.Cached, hit.Coalesced = true, coalesced
			hit.Elapsed = time.Since(start)
			if coalesced {
				queryLocalTotal.With("coalesced").Inc()
			} else {
				queryLocalTotal.With("hit").Inc()
			}
			return hit, nil
		}
		if ok {
			// Wait for the leader under our own context: a cancelled
			// waiter must not hang on a slow leader. Then look again: the
			// answer is there, or the leader failed (possibly its own
			// cancellation, which says nothing about our query) and we
			// find another leader, or none.
			select {
			case <-ctx.Done():
				return m, &PartialError{Phase: "query-local", Err: ctx.Err()}
			case <-c.done:
			}
			coalesced = true
			continue
		}
		e.qmu.Lock()
		if _, ok := e.answers[key]; ok {
			e.qmu.Unlock()
			continue
		}
		done := make(chan struct{})
		e.answers[key] = answer{done: done}
		e.qmu.Unlock()
		return e.fillAnswer(ctx, q, key, done, m, start)
	}
}

// fillAnswer computes the cell the caller inserted and closes its done.
// A failure removes the cell, so no error is kept; a success counts
// against queryCacheLimit.
func (e *Expansion) fillAnswer(ctx context.Context, q PointQuery, key queryKey, done chan struct{}, m Marginal, start time.Time) (Marginal, error) {
	out, err := e.queryLocalMiss(ctx, q, key, m, start)
	e.qmu.Lock()
	defer e.qmu.Unlock()
	defer close(done)
	if err != nil {
		delete(e.answers, key)
		return out, err
	}
	if e.finished >= queryCacheLimit {
		for k, old := range e.answers {
			if old.done == nil {
				delete(e.answers, k)
				e.finished--
				break
			}
		}
	}
	e.answers[key] = answer{m: out}
	e.finished++
	return out, nil
}

// queryLocalMiss is the computing path: local grounding, target
// resolution, and neighborhood inference. m arrives pre-filled with the
// atom, generation, and resolved bounds, key with the interned atom and
// knobs; the caller owns the answer table.
func (e *Expansion) queryLocalMiss(ctx context.Context, q PointQuery, key queryKey, m Marginal, start time.Time) (Marginal, error) {
	ctx, span := obs.StartSpan(ctx, "query-local")
	defer span.End()
	aq := obs.QueryFrom(ctx)
	if aq != nil {
		aq.SetPhase("ground-local")
	}

	lres, err := e.localGrounder().Ground(ctx, ground.LocalQuery{
		Rel: key.rel, X: key.x, Y: key.y, Depth: key.depth, Radius: key.radius,
	})
	if err != nil {
		if isCtxErr(err) {
			return m, &PartialError{Phase: "query-local", Err: err}
		}
		return m, err
	}
	m.SeedFacts = lres.SeedFacts
	m.RulesReachable = lres.RulesReachable
	m.LocalFacts = lres.Facts.NumRows()
	m.Iterations = lres.Iterations
	span.SetAttr("seed_facts", m.SeedFacts)
	span.SetAttr("local_facts", m.LocalFacts)

	// Prefer an observed row among the matches: evidence needs no
	// sampling, its weight is the answer.
	targetRow := -1
	ids := lres.Facts.Int32Col(kb.TPiI)
	for _, r := range lres.TargetRows {
		if ids[r] < lres.FirstDerived {
			targetRow, m.Observed = r, true
			break
		}
	}
	if targetRow < 0 && len(lres.TargetRows) > 0 {
		targetRow = lres.TargetRows[0]
	}

	switch {
	case targetRow < 0:
		// Neither observed nor derivable within the bounds: a cacheable
		// negative answer.
	case m.Observed:
		m.Found = true
		m.Probability = probability(lres.Facts.Float64Col(kb.TPiW)[targetRow])
	case q.Samples < 0:
		// Derivable, but inference skipped by request.
		m.Found = true
	default:
		m.Found = true
		if aq != nil {
			aq.SetPhase("infer-local")
		}
		g, gerr := factor.FromResult(lres.Result)
		if gerr != nil {
			return m, gerr
		}
		id := lres.Facts.Int32Col(kb.TPiI)[targetRow]
		v, ok := g.VarOf(id)
		if !ok {
			return m, fmt.Errorf("probkb: query target fact %d has no local graph variable", id)
		}
		iopts := inferOptions(e.cfg)
		iopts.Burnin, iopts.Samples = key.burnin, key.samples
		iopts.OnIteration = nil
		inres, ierr := infer.LocalMarginalContext(ctx, g, v, key.markov, iopts)
		m.LocalVars, m.LocalFactors, m.Collected = inres.Vars, inres.Factors, inres.Collected
		if inres.Collected > 0 {
			m.Probability = inres.Probability
		}
		if ierr != nil {
			if isCtxErr(ierr) {
				return m, &PartialError{Phase: "query-local", Err: ierr}
			}
			return m, ierr
		}
	}

	m.Elapsed = time.Since(start)
	queryLocalTotal.With("miss").Inc()
	queryLocalSeconds.Observe(m.Elapsed.Seconds())
	var p *float64
	if !math.IsNaN(m.Probability) {
		p = &m.Probability
	}
	e.jr.Emit(journal.TypeQueryLocal, journal.QueryLocal{
		Rel: q.Rel, X: q.X, Y: q.Y,
		Depth: key.depth, Radius: key.radius,
		Found: m.Found, Observed: m.Observed,
		SeedFacts: m.SeedFacts, LocalFacts: m.LocalFacts,
		LocalVars: m.LocalVars, LocalFactors: m.LocalFactors,
		Rules: m.RulesReachable, Collected: m.Collected,
		Probability: p,
		Seconds:     m.Elapsed.Seconds(),
	})
	return m, nil
}

// PointQuery answers a point query directly against a KB, with no
// prior Expand: the KB's facts are the evidence, the local grounding
// does all derivation. cfg supplies sampling defaults (Seed,
// GibbsBurnin, GibbsSamples, EngineWorkers); engine
// choice and iteration caps are ignored — locality comes from the
// query bounds.
func (k *KB) PointQuery(ctx context.Context, q PointQuery, cfg Config) (Marginal, error) {
	res := &ground.Result{
		Facts:        k.inner.FactsTable(),
		BaseFacts:    k.inner.NumFacts(),
		FirstDerived: int32(k.inner.NumFacts()),
		Converged:    true,
	}
	return newExpansion(k.inner, res, cfg, journal.New(), nil).QueryLocal(ctx, q)
}
