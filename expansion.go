package probkb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

// Fact is one fact of an expanded KB, rendered symbolically.
type Fact struct {
	Rel    string
	X      string
	XClass string
	Y      string
	YClass string
	// Probability is the extraction confidence for observed facts, or
	// the Gibbs marginal for inferred ones (NaN when inference was
	// skipped).
	Probability float64
	// Inferred reports whether expansion derived the fact.
	Inferred bool
}

// String renders the fact.
func (f Fact) String() string {
	return fmt.Sprintf("%.2f %s(%s:%s, %s:%s)", f.Probability, f.Rel, f.X, f.XClass, f.Y, f.YClass)
}

// ExpandStats summarizes what an expansion did.
type ExpandStats struct {
	BaseFacts     int
	InferredFacts int
	TotalFacts    int
	Factors       int
	Iterations    int
	Converged     bool
	// AtomQueries and FactorQueries count join queries — the O(k) vs
	// O(n) story of Section 4.3.1.
	AtomQueries   int
	FactorQueries int
	LoadTime      time.Duration
	GroundingTime time.Duration
	FactorTime    time.Duration
	InferenceTime time.Duration
}

// Expansion is the result of KB.Expand.
type Expansion struct {
	kb  *kb.KB
	res *ground.Result
	cfg Config
	jr  *journal.Writer

	graph         *factor.Graph
	inferenceTime time.Duration

	// checker is the constraint checker this expansion's grounding ran
	// under (nil without ApplyConstraints), holding the violators it
	// removed. Frozen with the expansion: an ExtendWith round continues
	// from a copy.
	checker *quality.Checker

	// Point-query state (query.go): the generation the marginal cache
	// is keyed by, the cache itself, the in-flight coalescing table
	// (concurrent identical lookups share one grounding run), and the
	// lazily built local grounder. The cache dies with the expansion,
	// which is what makes ExtendWith an invalidation.
	gen       uint64
	qmu       sync.RWMutex
	qcache    map[queryKey]Marginal
	qflight   map[queryKey]*queryCall
	localOnce sync.Once
	local     *ground.LocalGrounder
}

// KB returns the knowledge base this expansion was grounded from — the
// generation's frozen base. After ExtendWith it is the copy-on-write
// fork carrying the round's new symbols and memberships; the MVCC
// serving tier publishes it next to the expansion so SQL and dictionary
// lookups resolve against the same generation the expansion answers
// from. Callers must treat it as read-only while readers are pinned.
func (e *Expansion) KB() *KB { return &KB{inner: e.kb} }

// Journal returns the run's journal writer — the bounded in-memory
// event record every expansion keeps (and, when Config.JournalPath was
// set, also streamed to disk). The server's /debug/journal and
// /debug/profile endpoints read it; journal.FromEvents + journal.
// Analyze turn it into a workload profile.
func (e *Expansion) Journal() *journal.Writer { return e.jr }

// emitRunEnd closes the journal's event stream with the run summary.
func (e *Expansion) emitRunEnd() {
	st := e.Stats()
	e.jr.Emit(journal.TypeRunEnd, journal.RunEnd{
		Iterations:    st.Iterations,
		Converged:     st.Converged,
		BaseFacts:     st.BaseFacts,
		InferredFacts: st.InferredFacts,
		TotalFacts:    st.TotalFacts,
		Factors:       st.Factors,
		LoadSeconds:   st.LoadTime.Seconds(),
		GroundSeconds: st.GroundingTime.Seconds(),
		FactorSeconds: st.FactorTime.Seconds(),
		InferSeconds:  st.InferenceTime.Seconds(),
		DroppedEvents: e.jr.Dropped(),
	})
}

// runInference builds the factor graph and fills inferred facts'
// probabilities with their marginals: exact for every connected
// component small enough to enumerate, Gibbs estimates for the rest. On
// context cancellation it applies what a partial run returned — the
// exact marginals plus the estimates from the sweeps collected so far,
// or nothing when the enumeration or the first collected sweep had not
// finished — and returns the context error; ExpandContext wraps that
// into a PartialError.
func (e *Expansion) runInference(ctx context.Context) error {
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "infer")
	defer span.End()

	_, fgSpan := obs.StartSpan(ctx, "factor-graph")
	g, err := factor.FromResult(e.res)
	if err != nil {
		fgSpan.End()
		return err
	}
	e.graph = g
	fgSpan.SetAttr("vars", g.NumVars())
	fgSpan.End()

	// How the pass will split the graph's components, on every sink: the
	// span, the journal (probkb report) and /metrics (probkb top).
	plan := journal.Inference(infer.PlanOf(g))
	e.jr.Emit(journal.TypeInference, plan)
	for _, a := range []struct {
		attr string
		n    int
		g    *obs.Gauge
	}{
		{"components", plan.Components, obs.Default.Gauge("probkb_infer_components")},
		{"exact", plan.Exact, obs.Default.Gauge("probkb_infer_exact_components")},
		{"sampled_vars", plan.SampledVars, obs.Default.Gauge("probkb_infer_sampled_vars")},
		{"max_component", plan.MaxComponent, obs.Default.Gauge("probkb_infer_max_component")},
	} {
		span.SetAttr(a.attr, a.n)
		a.g.Set(float64(a.n))
	}

	iopts := inferOptions(e.cfg)
	if e.jr != nil {
		// Journal the convergence timeline of whatever the chain sweeps:
		// periodic checkpoints with split-half R-hat and ESS over tracked
		// atoms, labeled by fact ID.
		iopts.OnCheckpoint = func(cp infer.Checkpoint) {
			jcp := journal.GibbsCheckpoint{
				Sweep:         cp.Sweep,
				Burnin:        cp.Burnin,
				Vars:          cp.Vars,
				Flips:         cp.Flips,
				Seconds:       cp.Elapsed.Seconds(),
				SamplesPerSec: cp.SamplesPerSec,
				RHatMax:       cp.RHatMax,
				ESSMin:        cp.ESSMin,
			}
			for _, d := range cp.Tracked {
				jcp.Tracked = append(jcp.Tracked, journal.VarDiagnostic{
					Var: d.Var, FactID: g.FactID(int32(d.Var)),
					Mean: d.Mean, RHat: d.RHat, ESS: d.ESS,
				})
			}
			e.jr.Emit(journal.TypeGibbsCheckpoint, jcp)
		}
	}
	probs, collected, err := infer.MarginalsContext(ctx, g, iopts)
	if collected > 0 {
		if aerr := infer.ApplyMarginals(g, e.res.Facts, probs); aerr != nil {
			return aerr
		}
	}
	e.inferenceTime = time.Since(start)
	span.SetAttr("vars", g.NumVars())
	observeStage("infer", start)
	return err
}

// Stats returns the expansion summary.
func (e *Expansion) Stats() ExpandStats {
	st := ExpandStats{
		BaseFacts:     e.res.BaseFacts,
		InferredFacts: e.res.InferredFacts(),
		TotalFacts:    e.res.Facts.NumRows(),
		Iterations:    e.res.Iterations,
		Converged:     e.res.Converged,
		AtomQueries:   e.res.AtomQueries,
		FactorQueries: e.res.FactorQueries,
		LoadTime:      e.res.LoadTime,
		GroundingTime: e.res.AtomTime,
		FactorTime:    e.res.FactorTime,
		InferenceTime: e.inferenceTime,
	}
	if e.res.Factors != nil {
		st.Factors = e.res.Factors.NumRows()
	}
	return st
}

// Facts returns every fact of the expanded KB, observed and inferred.
func (e *Expansion) Facts() []Fact {
	t := e.res.Facts
	out := make([]Fact, 0, t.NumRows())
	ids := t.Int32Col(kb.TPiI)
	for r := 0; r < t.NumRows(); r++ {
		f := kb.FactAtRow(t, r)
		out = append(out, Fact{
			Rel: e.kb.RelDict.Name(f.Rel),
			X:   e.kb.Entities.Name(f.X), XClass: e.kb.Classes.Name(f.XClass),
			Y: e.kb.Entities.Name(f.Y), YClass: e.kb.Classes.Name(f.YClass),
			Probability: probability(f.W),
			Inferred:    int(ids[r]) >= e.res.BaseFacts,
		})
	}
	return out
}

// InferredFacts returns only the newly derived facts.
func (e *Expansion) InferredFacts() []Fact {
	var out []Fact
	for _, f := range e.Facts() {
		if f.Inferred {
			out = append(out, f)
		}
	}
	return out
}

// Find returns the expanded facts matching the relation and entity names
// (empty strings match anything).
//
// Each non-wildcard name is resolved against the dictionaries once and
// rows are filtered on int32 IDs, so no Fact is rendered (five dict
// lookups per row) unless it matches; a name absent from its dictionary
// matches nothing.
func (e *Expansion) Find(rel, x, y string) []Fact {
	relID, x1, y1 := int32(-1), int32(-1), int32(-1)
	if rel != "" {
		id, ok := e.kb.RelDict.Lookup(rel)
		if !ok {
			return nil
		}
		relID = id
	}
	if x != "" {
		id, ok := e.kb.Entities.Lookup(x)
		if !ok {
			return nil
		}
		x1 = id
	}
	if y != "" {
		id, ok := e.kb.Entities.Lookup(y)
		if !ok {
			return nil
		}
		y1 = id
	}

	t := e.res.Facts
	ids := t.Int32Col(kb.TPiI)
	rels := t.Int32Col(kb.TPiR)
	xs := t.Int32Col(kb.TPiX)
	ys := t.Int32Col(kb.TPiY)
	var out []Fact
	for r := 0; r < t.NumRows(); r++ {
		if (relID < 0 || rels[r] == relID) && (x1 < 0 || xs[r] == x1) && (y1 < 0 || ys[r] == y1) {
			f := kb.FactAtRow(t, r)
			out = append(out, Fact{
				Rel: e.kb.RelDict.Name(f.Rel),
				X:   e.kb.Entities.Name(f.X), XClass: e.kb.Classes.Name(f.XClass),
				Y: e.kb.Entities.Name(f.Y), YClass: e.kb.Classes.Name(f.YClass),
				Probability: probability(f.W),
				Inferred:    int(ids[r]) >= e.res.BaseFacts,
			})
		}
	}
	return out
}

// Explain renders the derivation tree of the first fact matching
// (rel, x, y), using the factor graph's lineage (Definition 7 notes that
// TΦ carries the entire lineage). It requires RunInference or at least a
// factor table; depth bounds the recursion. As in Find, the names are
// resolved to IDs once and rows matched on those; a graph variable is
// its TΠ row (factor.FromTables), so the tree's nodes render straight
// from the table.
func (e *Expansion) Explain(rel, x, y string, depth int) (string, error) {
	if err := e.ensureGraph(); err != nil {
		return "", err
	}
	t := e.res.Facts
	target := -1
	relID, okR := e.kb.RelDict.Lookup(rel)
	x1, okX := e.kb.Entities.Lookup(x)
	y1, okY := e.kb.Entities.Lookup(y)
	if okR && okX && okY {
		rels, xs, ys := t.Int32Col(kb.TPiR), t.Int32Col(kb.TPiX), t.Int32Col(kb.TPiY)
		for r := range rels {
			if rels[r] == relID && xs[r] == x1 && ys[r] == y1 {
				target = r
				break
			}
		}
	}
	if target < 0 {
		return "", fmt.Errorf("probkb: no fact %s(%s, %s) in the expansion", rel, x, y)
	}
	name := func(v int32) string { return e.kb.FactString(kb.FactAtRow(t, int(v))) }
	return e.graph.Explain(int32(target), depth, name), nil
}

// FactorGraphStats exposes the ground factor graph's shape.
func (e *Expansion) FactorGraphStats() (vars, factors, singletons int, err error) {
	if err := e.ensureGraph(); err != nil {
		return 0, 0, 0, err
	}
	st := e.graph.Stats()
	return st.Vars, st.Factors, st.Singletons, nil
}

// ensureGraph lazily builds the factor graph.
func (e *Expansion) ensureGraph() error {
	if e.graph != nil {
		return nil
	}
	g, err := factor.FromResult(e.res)
	if err != nil {
		return err
	}
	e.graph = g
	return nil
}

// MAPWorld runs MAP inference (MaxWalkSAT) over the ground factor graph
// and returns the facts that are true in the most probable world, along
// with the world's unnormalized log score. This is the paper's
// "alternative inference type" of Section 2.2: a single consistent world
// instead of per-fact marginals.
func (e *Expansion) MAPWorld(seed int64) ([]Fact, float64, error) {
	if err := e.ensureGraph(); err != nil {
		return nil, 0, err
	}
	res := infer.MAP(e.graph, infer.MAPOptions{Seed: seed})
	t := e.res.Facts
	ids := t.Int32Col(kb.TPiI)
	var out []Fact
	for r := 0; r < t.NumRows(); r++ {
		v, ok := e.graph.VarOf(ids[r])
		if !ok || !res.Assignment[v] {
			continue
		}
		f := kb.FactAtRow(t, r)
		out = append(out, Fact{
			Rel: e.kb.RelDict.Name(f.Rel),
			X:   e.kb.Entities.Name(f.X), XClass: e.kb.Classes.Name(f.XClass),
			Y: e.kb.Entities.Name(f.Y), YClass: e.kb.Classes.Name(f.YClass),
			Probability: probability(f.W),
			Inferred:    int(ids[r]) >= e.res.BaseFacts,
		})
	}
	return out, res.LogScore, nil
}

// ConvergenceDiagnostics re-runs Gibbs sampling as `chains` independent
// chains and reports the worst split-chain R̂ (values near 1 mean the
// marginals have converged; < 1.1 is the conventional threshold).
func (e *Expansion) ConvergenceDiagnostics(chains int) (maxRHat float64, converged bool, err error) {
	if err := e.ensureGraph(); err != nil {
		return 0, false, err
	}
	d := infer.MarginalsWithDiagnostics(e.graph, inferOptions(e.cfg), chains)
	return d.MaxRHat, d.Converged(1.1), nil
}

// ToKB materializes the expansion as a new knowledge base whose facts
// are the expanded set (inferred probabilities as weights), suitable for
// Save or further expansion rounds.
func (e *Expansion) ToKB() *KB {
	out := e.kb.Fork()
	t := e.res.Facts
	facts := make([]kb.Fact, 0, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		facts = append(facts, kb.FactAtRow(t, r))
	}
	out.ReplaceFacts(facts)
	return &KB{inner: out}
}

// ExtendWith incrementally expands the KB with newly observed facts —
// the daily reality of a web-scale KB, where extractions keep arriving.
// The prior closure is reused and the first grounding iteration joins
// only the new facts (semi-naive seeding), so cost scales with the
// delta. The prior expansion must have run to convergence (Stats().
// Converged); otherwise derivations among old facts could be missing
// and ExtendWith refuses.
//
// The returned Expansion replaces the receiver for further queries; the
// receiver stays valid and genuinely frozen: the new round builds on a
// copy-on-write fork of the receiver's KB (kb.Fork), so readers pinned
// to the old generation — the MVCC serving tier keeps them lock-free
// mid-extend — never observe a new symbol, membership, or weight.
// Facts derived in earlier rounds count as *base* facts of the new
// expansion (their inferred probabilities, when inference ran, carry
// over as evidence weights); Stats().InferredFacts and Fact.Inferred
// describe only the new round. Under Config.ApplyConstraints the round
// continues from what the receiver's constraint passes removed: a new
// fact, or one derived from it, that puts a removed entity back in the
// position it violated is left out.
func (e *Expansion) ExtendWith(newFacts []Fact) (*Expansion, error) {
	return e.ExtendWithContext(context.Background(), newFacts)
}

// ExtendWithContext is ExtendWith under the caller's context: grounding
// and inference observe cancellation cooperatively (a cancelled round
// returns an error and publishes nothing — the receiver generation is
// untouched), and the round's span tree hangs off ctx's trace.
func (e *Expansion) ExtendWithContext(ctx context.Context, newFacts []Fact) (*Expansion, error) {
	return e.extendWith(ctx, newFacts, false)
}

// ExtendWithDeferred is ExtendWithContext minus the factor phase and
// marginal inference: the new facts and their semi-naive closure become
// visible (and durable, when a store is attached) immediately, while
// derived facts keep NaN probabilities until RefreshMarginals runs.
// This is the streaming-ingest absorb step — the bounded-staleness
// model lets a firehose of batches land at delta-grounding cost and
// amortizes the factor and inference work over every K batches. The round
// carries the last factor table its lineage computed forward, so the
// refresh grounds factors only for what the deferred rounds added.
func (e *Expansion) ExtendWithDeferred(ctx context.Context, newFacts []Fact) (*Expansion, error) {
	return e.extendWith(ctx, newFacts, true)
}

// extendWith is the shared extend round. deferred skips the factor
// phase and inference (see ExtendWithDeferred).
func (e *Expansion) extendWith(ctx context.Context, newFacts []Fact, deferred bool) (*Expansion, error) {
	if !e.res.Converged {
		return nil, fmt.Errorf("probkb: ExtendWith requires a converged prior expansion")
	}
	work := e.kb.Fork()
	interned := make([]kb.Fact, 0, len(newFacts))
	for _, f := range newFacts {
		cx := work.Classes.Intern(f.XClass)
		cy := work.Classes.Intern(f.YClass)
		rel := work.AddRelation(f.Rel, cx, cy)
		work.AddMember(cx, work.Entities.Intern(f.X))
		work.AddMember(cy, work.Entities.Intern(f.Y))
		interned = append(interned, kb.Fact{
			Rel: rel,
			X:   work.Entities.Intern(f.X), XClass: cx,
			Y: work.Entities.Intern(f.Y), YClass: cy,
			W: f.Probability,
		})
	}

	ctx, root := obs.StartSpan(ctx, "extend")
	defer root.End()
	root.SetAttr("new_facts", len(newFacts))

	// Each incremental round keeps its own in-memory journal (no file
	// sink: the original JournalPath belongs to the prior run's record).
	jr := journal.New()
	jr.Emit(journal.TypeRunStart, journal.Header{
		Engine:     e.cfg.Engine.String(),
		Seed:       e.cfg.Seed,
		ConfigHash: e.cfg.Hash(),
		Start:      time.Now().UTC().Format(time.RFC3339),
	})

	opts := groundOptions(ctx, e.cfg)
	opts.SkipFactors = deferred
	opts.Journal = jr
	if p := e.cfg.Persist; p != nil {
		p.inner.SetJournal(jr)
		defer p.inner.SetJournal(nil)
		// ground.Extend grows a Clone of e.res.Facts: saying so lets a store
		// still in step with this generation log the batch, not a full diff.
		attachPersist(&opts, p, work, e.res.Facts)
	}
	var checker *quality.Checker
	if e.cfg.ApplyConstraints {
		// The round inherits what the lineage has removed, so a streamed
		// batch cannot bring a removed entity's facts back.
		checker = e.checker.Clone()
		opts.ConstraintHook = journaledHook(jr, checker)
	}
	res, err := ground.Extend(work, e.res, interned, opts)
	if err != nil {
		return nil, err
	}
	if err := persistFinal(e.cfg.Persist, work, res.Facts, e.res.Facts); err != nil {
		return nil, err
	}
	next := newExpansion(work, res, e.cfg, jr, checker)
	if !deferred && e.cfg.RunInference {
		if err := next.runInference(ctx); err != nil {
			return nil, err
		}
		if err := persistFinal(e.cfg.Persist, work, res.Facts, e.res.Facts); err != nil {
			return nil, err
		}
	}
	next.emitRunEnd()
	return next, nil
}

// RefreshMarginals pays down the staleness a run of ExtendWithDeferred
// rounds accumulated: it brings the factor table up to the (unchanged)
// closure and refreshes every marginal with a fresh inference pass,
// regardless of Config.RunInference. The factor phase maintains the last
// table computed along the lineage, grounding only the clauses that name
// a fact the deferred rounds added; the result is the table a
// recomputation over the whole closure builds, row for row. Like
// ExtendWith it returns a new Expansion built on a cloned fact table — the receiver stays frozen
// for pinned readers — and persists the refreshed marginals when a
// store is attached. The closure itself is already a fixpoint, so the
// grounding step degenerates to one empty-delta iteration.
func (e *Expansion) RefreshMarginals(ctx context.Context) (*Expansion, error) {
	if !e.res.Converged {
		return nil, fmt.Errorf("probkb: RefreshMarginals requires a converged prior expansion")
	}
	ctx, root := obs.StartSpan(ctx, "refresh-marginals")
	defer root.End()

	jr := journal.New()
	jr.Emit(journal.TypeRunStart, journal.Header{
		Engine:     e.cfg.Engine.String(),
		Seed:       e.cfg.Seed,
		ConfigHash: e.cfg.Hash(),
		Start:      time.Now().UTC().Format(time.RFC3339),
	})

	opts := groundOptions(ctx, e.cfg)
	opts.Journal = jr
	if p := e.cfg.Persist; p != nil {
		p.inner.SetJournal(jr)
		defer p.inner.SetJournal(nil)
		attachPersist(&opts, p, e.kb, e.res.Facts)
	}
	res, err := ground.Extend(e.kb, e.res, nil, opts)
	if err != nil {
		return nil, err
	}
	next := newExpansion(e.kb, res, e.cfg, jr, e.checker)
	if err := next.runInference(ctx); err != nil {
		return nil, err
	}
	if err := persistFinal(e.cfg.Persist, e.kb, res.Facts, e.res.Facts); err != nil {
		return nil, err
	}
	next.emitRunEnd()
	return next, nil
}

// SaveFactorGraph writes the ground factor graph as two TSV files in
// dir — variables.tsv and factors.tsv — the relational hand-off format
// of the paper's architecture (Figure 1): any external marginal
// inference engine can consume it.
func (e *Expansion) SaveFactorGraph(dir string) error {
	if e.res.Factors == nil {
		return fmt.Errorf("probkb: expansion has no factor table")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	varsF, err := os.Create(filepath.Join(dir, "variables.tsv"))
	if err != nil {
		return err
	}
	defer varsF.Close()
	factorsF, err := os.Create(filepath.Join(dir, "factors.tsv"))
	if err != nil {
		return err
	}
	defer factorsF.Close()
	render := func(row int) string {
		return e.kb.FactString(kb.FactAtRow(e.res.Facts, row))
	}
	if err := factor.Export(e.res.Facts, e.res.Factors, varsF, factorsF, render); err != nil {
		return err
	}
	if err := varsF.Sync(); err != nil {
		return err
	}
	return factorsF.Sync()
}

// PerIteration reports per-iteration grounding progress: new facts and
// constraint deletions, in order.
func (e *Expansion) PerIteration() []IterationStats {
	out := make([]IterationStats, len(e.res.PerIteration))
	for i, st := range e.res.PerIteration {
		out[i] = IterationStats{
			Iteration: st.Iteration,
			NewFacts:  st.NewFacts,
			Deleted:   st.Deleted,
			Queries:   st.Queries,
			Elapsed:   st.Elapsed,
		}
	}
	return out
}

// IterationStats is one grounding iteration's summary. NewFacts counts
// the facts the iteration added before its constraint pass, Deleted the
// facts the pass removed, old or new; a fact derived again after the
// constraints removed it counts in both.
type IterationStats struct {
	Iteration int
	NewFacts  int
	Deleted   int
	Queries   int
	Elapsed   time.Duration
}

var _ = engine.NullInt32 // engine types appear in exported docs
