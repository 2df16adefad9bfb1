// Point queries: "what is P(Rel(x, y))?" answered by grounding only the
// atom's local proof graph and sampling only its Markov neighborhood,
// instead of paying full-KB closure + global Gibbs per lookup. This is
// the ProPPR / Wick-et-al. counterpart to Expand: approximate on
// purpose (Depth and Radius bound the proof), exact when the bounds
// cover the atom's component, and cheap enough for millions of lookups.
package probkb

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"probkb/internal/engine"
	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/infer"
	"probkb/internal/kb"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
	"probkb/internal/quality"
)

func init() {
	obs.Default.Help("probkb_query_local_total",
		"Point queries answered by the local grounding path, by cache outcome.")
	obs.Default.Help("probkb_query_local_seconds",
		"Wall time of cache-miss local point queries (grounding + neighborhood inference).")
}

// The probkb_query_local_* series, each resolved on its first use, so a
// point query makes no by-name registry lookup and a process that never
// answers one exposes none.
var (
	queryLocalMisses = sync.OnceValue(func() *obs.Counter {
		return obs.Default.Counter("probkb_query_local_total", obs.L("cache", "miss"))
	})
	queryLocalHits = sync.OnceValue(func() *obs.Counter {
		return obs.Default.Counter("probkb_query_local_total", obs.L("cache", "hit"))
	})
	queryLocalCoalesced = sync.OnceValue(func() *obs.Counter {
		return obs.Default.Counter("probkb_query_local_total", obs.L("cache", "coalesced"))
	})
	queryLocalSeconds = sync.OnceValue(func() *obs.Histogram {
		return obs.Default.Histogram("probkb_query_local_seconds", nil)
	})
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
	// otherwise), NaN when the atom is unknown/undervable within the
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

// queryKey keys the marginal cache: the interned atom plus every knob
// that changes the answer. The expansion generation is implicit — each
// Expansion owns its cache, so a new generation starts empty.
type queryKey struct {
	rel, x, y       int32
	depth, radius   int
	markov          int
	burnin, samples int
}

// queryCacheLimit bounds the per-expansion marginal cache; past it an
// arbitrary entry is evicted (the workload is point lookups with heavy
// repetition, so any victim works).
const queryCacheLimit = 4096

// queryCall is one in-flight cache-miss computation; concurrent
// identical queries wait on done and share m/err instead of grounding
// the same neighborhood again.
type queryCall struct {
	done chan struct{}
	m    Marginal
	err  error
}

// expansionGen numbers expansions process-wide so cached marginals are
// attributable to the generation that computed them.
var expansionGen atomic.Uint64

// newExpansion is the one constructor every expansion path uses: it
// assigns the generation the point-query cache is keyed by.
func newExpansion(k *kb.KB, res *ground.Result, cfg Config, jr *journal.Writer, checker *quality.Checker) *Expansion {
	return &Expansion{
		kb:      k,
		res:     res,
		cfg:     cfg,
		jr:      jr,
		checker: checker,
		gen:     expansionGen.Add(1),
		qcache:  make(map[queryKey]Marginal),
	}
}

// Generation identifies this expansion for cache-freshness checks: a
// new expansion (Expand, ExtendWith, /admin/expand) always has a new
// generation, so a Marginal whose Generation differs is stale.
func (e *Expansion) Generation() uint64 { return e.gen }

// localGrounder lazily builds the query-local grounder over this
// expansion's evidence: the rows whose fact ID predates inference
// (selected by ID, not row position — constraint deletions shift rows).
// Derived facts of *prior* rounds count as evidence here exactly as
// ExtendWith treats them.
func (e *Expansion) localGrounder() *ground.LocalGrounder {
	e.localOnce.Do(func() {
		t := e.res.Facts
		ids := t.Int32Col(kb.TPiI)
		rows := make([]int32, 0, e.res.BaseFacts)
		for r := 0; r < t.NumRows(); r++ {
			if int(ids[r]) < e.res.BaseFacts {
				rows = append(rows, int32(r))
			}
		}
		base := engine.NewTable("T_base", kb.FactsSchema())
		base.AppendRowsFrom(t, rows)
		e.local = ground.NewLocal(e.kb.Rules, base, ground.Options{
			Workers:   e.cfg.EngineWorkers,
			SemiNaive: true,
		})
	})
	return e.local
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

	depth := q.Depth
	if depth <= 0 {
		depth = ground.DefaultLocalDepth
	}
	radius := q.Radius
	if radius <= 0 {
		radius = depth + 1
	}
	m.Depth, m.Radius = depth, radius

	burnin := q.Burnin
	if burnin <= 0 {
		burnin = e.cfg.GibbsBurnin
	}
	if burnin <= 0 {
		burnin = 100
	}
	samples := q.Samples
	if samples == 0 {
		samples = e.cfg.GibbsSamples
	}
	if samples == 0 {
		samples = 500
	}

	// Resolve the atom read-only: Intern would race with concurrent
	// queries, and an unknown symbol cannot name a derivable fact.
	rel, okR := e.kb.RelDict.Lookup(q.Rel)
	x, okX := e.kb.Entities.Lookup(q.X)
	y, okY := e.kb.Entities.Lookup(q.Y)
	if !okR || !okX || !okY {
		m.Elapsed = time.Since(start)
		queryLocalMisses().Inc()
		return m, nil
	}

	key := queryKey{rel: rel, x: x, y: y, depth: depth, radius: radius,
		markov: q.MarkovRadius, burnin: burnin, samples: samples}
	if q.NoCache {
		return e.queryLocalMiss(ctx, q, m, depth, radius, burnin, samples, start)
	}
	for {
		e.qmu.Lock()
		if hit, ok := e.qcache[key]; ok {
			e.qmu.Unlock()
			hit.Cached = true
			hit.Elapsed = time.Since(start)
			queryLocalHits().Inc()
			return hit, nil
		}
		c, inflight := e.qflight[key]
		if !inflight {
			// Become the leader: compute, publish to cache and waiters.
			c = &queryCall{done: make(chan struct{})}
			if e.qflight == nil {
				e.qflight = make(map[queryKey]*queryCall)
			}
			e.qflight[key] = c
			e.qmu.Unlock()
			out, err := e.queryLocalMiss(ctx, q, m, depth, radius, burnin, samples, start)
			e.qmu.Lock()
			delete(e.qflight, key)
			if err == nil {
				if e.qcache == nil {
					e.qcache = make(map[queryKey]Marginal)
				}
				if len(e.qcache) >= queryCacheLimit {
					for k := range e.qcache {
						delete(e.qcache, k)
						break
					}
				}
				e.qcache[key] = out
			}
			e.qmu.Unlock()
			c.m, c.err = out, err
			close(c.done)
			return out, err
		}
		e.qmu.Unlock()
		// Coalesce onto the in-flight leader — but honor our own
		// context: a cancelled waiter must not hang on a slow leader.
		select {
		case <-ctx.Done():
			return m, &PartialError{Phase: "query-local", Err: ctx.Err()}
		case <-c.done:
		}
		if c.err != nil {
			// The leader failed (possibly its own cancellation, which
			// says nothing about our query); retry — we will find the
			// cache filled, a new leader to wait on, or lead ourselves.
			continue
		}
		hit := c.m
		hit.Cached, hit.Coalesced = true, true
		hit.Elapsed = time.Since(start)
		queryLocalCoalesced().Inc()
		return hit, nil
	}
}

// queryLocalMiss is the cache-miss path: local grounding, target
// resolution, and neighborhood inference. m arrives pre-filled with the
// atom, generation, and resolved bounds; the caller owns caching and
// coalescing.
func (e *Expansion) queryLocalMiss(ctx context.Context, q PointQuery, m Marginal, depth, radius, burnin, samples int, start time.Time) (Marginal, error) {
	rel, _ := e.kb.RelDict.Lookup(q.Rel)
	x, _ := e.kb.Entities.Lookup(q.X)
	y, _ := e.kb.Entities.Lookup(q.Y)

	ctx, span := obs.StartSpan(ctx, "query-local")
	defer span.End()
	aq := obs.QueryFrom(ctx)
	if aq != nil {
		aq.SetPhase("ground-local")
	}

	lres, err := e.localGrounder().Ground(ctx, ground.LocalQuery{
		Rel: rel, X: x, Y: y, Depth: depth, Radius: radius,
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
	// sampling, its weight is the answer. (Local grounding never runs
	// the constraint hook, so seed rows stay at positions < BaseFacts.)
	targetRow := -1
	for _, r := range lres.TargetRows {
		if r < lres.BaseFacts {
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
		iopts.Burnin, iopts.Samples = burnin, samples
		iopts.OnIteration = nil
		inres, ierr := infer.LocalMarginalContext(ctx, g, v, q.MarkovRadius, iopts)
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
	queryLocalMisses().Inc()
	queryLocalSeconds().Observe(m.Elapsed.Seconds())
	var p *float64
	if !math.IsNaN(m.Probability) {
		p = &m.Probability
	}
	e.jr.Emit(journal.TypeQueryLocal, journal.QueryLocal{
		Rel: q.Rel, X: q.X, Y: q.Y,
		Depth: depth, Radius: radius,
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
		Facts:     k.inner.FactsTable(),
		BaseFacts: len(k.inner.Facts),
		Converged: true,
	}
	return newExpansion(k.inner, res, cfg, journal.New(), nil).QueryLocal(ctx, q)
}
