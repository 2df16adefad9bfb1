package probkb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/infer"
	"probkb/internal/ingest"
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

	inferenceTime time.Duration

	// checker is the constraint checker this expansion's grounding ran
	// under (nil without ApplyConstraints), holding the violators it
	// removed. Frozen with the expansion: an ExtendWith round continues
	// from a copy.
	checker *quality.Checker

	// Built on first reference and shared by every later reader
	// (newExpansion, DESIGN.md §12): the factor graph over TΠ's fact IDs
	// and TΦ, and the point-query grounder.
	factorGraph   func() (*factor.Graph, error)
	localGrounder func() *ground.LocalGrounder

	// Point answers (query.go): the generation they carry, one cell per
	// (atom, bounds, sampling shape), and how many cells are finished.
	// The table dies with the expansion: ExtendWith invalidates it.
	gen      uint64
	qmu      sync.RWMutex
	answers  map[queryKey]answer
	finished int
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

// runInference fills every pending fact's probability — a fact whose
// weight is NULL, the only cells infer.ApplyMarginals writes — with its
// marginal. It builds the graph of the components that hold a pending
// fact (infer.PendingGraph), not of all of TΠ, and infers those: exact
// for every component small enough to enumerate, Gibbs estimates for the
// rest, every value bit-identical to what a pass over the whole graph
// writes. The partition that picks the components is one union-find
// pass over TΦ. On context cancellation it applies what a partial run
// returned — the exact marginals plus the estimates from the sweeps
// collected so far, or nothing when the enumeration or the first
// collected sweep had not finished — and returns the context error; the
// round wraps that into a PartialError. It keeps no graph: readers build
// the whole one (factorGraph).
func (e *Expansion) runInference(ctx context.Context) error {
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "infer")
	defer span.End()

	_, fgSpan := obs.StartSpan(ctx, "factor-graph")
	g, pending, err := infer.PendingGraph(e.res.Facts, e.res.Factors)
	if err != nil {
		fgSpan.End()
		return err
	}
	fgSpan.SetAttr("vars", g.NumVars())
	fgSpan.SetAttr("factors", g.NumFactors())
	fgSpan.End()
	span.SetAttr("pending", pending)

	// How the pass will split its graph's components, on every sink: the
	// span, the journal (probkb report) and /metrics (probkb top).
	plan := journal.Inference(infer.PlanOf(g))
	e.jr.Emit(journal.TypeInference, plan)
	for _, a := range []struct {
		attr string
		n    int
		g    *obs.Gauge
	}{
		{"components", plan.Components, inferComponents},
		{"exact", plan.Exact, inferExact},
		{"sampled_vars", plan.SampledVars, inferSampledVars},
		{"max_component", plan.MaxComponent, inferMaxComponent},
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
	n := e.res.Facts.NumRows()
	out := make([]Fact, n)
	for r := range n {
		out[r] = e.fact(r)
	}
	return out
}

// InferredFacts returns only the newly derived facts.
func (e *Expansion) InferredFacts() []Fact {
	var out []Fact
	for r, id := range e.res.Facts.Int32Col(kb.TPiI) {
		if e.derived(id) {
			out = append(out, e.fact(r))
		}
	}
	return out
}

// fact renders row r of the expansion's TΠ.
func (e *Expansion) fact(r int) Fact {
	t := e.res.Facts
	f := kb.FactAtRow(t, r)
	return Fact{
		Rel: e.kb.RelDict.Name(f.Rel),
		X:   e.kb.Entities.Name(f.X), XClass: e.kb.Classes.Name(f.XClass),
		Y: e.kb.Entities.Name(f.Y), YClass: e.kb.Classes.Name(f.YClass),
		Probability: probability(f.W),
		Inferred:    e.derived(t.Int32Col(kb.TPiI)[r]),
	}
}

// derived reports whether this round's grounding derived the fact with
// ID id. IDs are compared with the first one grounding handed out, not
// with a row count: constraint passes leave holes in them.
func (e *Expansion) derived(id int32) bool { return id >= e.res.FirstDerived }

// Find returns the expanded facts matching the relation and entity names
// (empty strings match anything).
func (e *Expansion) Find(rel, x, y string) []Fact {
	out, _ := e.FindLimit(rel, x, y, nil, -1)
	return out
}

// FindLimit returns, in row order, the first limit facts Find would
// return (all of them when limit is negative) that are also inferred or
// not, as inferred says when it is non-nil, and how many facts match in
// all. Only the facts it returns are rendered: the rest are counted from
// TΠ's ID columns, so the cost of a small page does not grow with the
// matches.
func (e *Expansion) FindLimit(rel, x, y string, inferred *bool, limit int) ([]Fact, int) {
	var out []Fact
	total := 0
	ids := e.res.Facts.Int32Col(kb.TPiI)
	e.matchRows(rel, x, y, func(r int) bool {
		if inferred != nil && e.derived(ids[r]) != *inferred {
			return true
		}
		total++
		if limit < 0 || len(out) < limit {
			out = append(out, e.fact(r))
		}
		return true
	})
	return out, total
}

// matchRows calls visit with each TΠ row matching the relation and
// entity names (empty strings match anything), in row order, until visit
// returns false. Each non-wildcard name is resolved against the
// dictionaries once and rows are filtered on int32 IDs, so no row is
// rendered unless it matches; a name absent from its dictionary matches
// nothing.
func (e *Expansion) matchRows(rel, x, y string, visit func(r int) bool) {
	lookup := func(d *kb.Dict, name string) (int32, bool) {
		if name == "" {
			return -1, true
		}
		return d.Lookup(name)
	}
	relID, okR := lookup(e.kb.RelDict, rel)
	x1, okX := lookup(e.kb.Entities, x)
	y1, okY := lookup(e.kb.Entities, y)
	if !okR || !okX || !okY {
		return
	}
	t := e.res.Facts
	rels, xs, ys := t.Int32Col(kb.TPiR), t.Int32Col(kb.TPiX), t.Int32Col(kb.TPiY)
	for r := range rels {
		if (relID < 0 || rels[r] == relID) && (x1 < 0 || xs[r] == x1) && (y1 < 0 || ys[r] == y1) && !visit(r) {
			return
		}
	}
}

// Explain renders the derivation tree of the first fact matching
// (rel, x, y) as Find matches them, using the factor graph's lineage
// (Definition 7 notes that TΦ carries the entire lineage). It requires
// RunInference or at least a factor table; depth bounds the recursion. A
// graph variable is its TΠ row (factor.FromTables), so the tree's nodes
// render straight from the table.
func (e *Expansion) Explain(rel, x, y string, depth int) (string, error) {
	g, err := e.factorGraph()
	if err != nil {
		return "", err
	}
	target := -1
	e.matchRows(rel, x, y, func(r int) bool {
		target = r
		return false
	})
	if target < 0 {
		return "", fmt.Errorf("probkb: no fact %s(%s, %s) in the expansion", rel, x, y)
	}
	t := e.res.Facts
	name := func(v int32) string { return e.kb.FactString(kb.FactAtRow(t, int(v))) }
	return g.Explain(int32(target), depth, name), nil
}

// FactorGraphStats exposes the ground factor graph's shape.
func (e *Expansion) FactorGraphStats() (vars, factors, singletons int, err error) {
	g, err := e.factorGraph()
	if err != nil {
		return 0, 0, 0, err
	}
	st := g.Stats()
	return st.Vars, st.Factors, st.Singletons, nil
}

// MAPWorld runs MAP inference (MaxWalkSAT) over the ground factor graph
// and returns the facts that are true in the most probable world, along
// with the world's unnormalized log score. This is the paper's
// "alternative inference type" of Section 2.2: a single consistent world
// instead of per-fact marginals.
//
// Unlike the marginals, the seeded search depends on TΦ's row order:
// MaxWalkSAT picks its unsatisfied clauses by factor index, so two
// expansions holding the same TΦ in another order may walk to different
// worlds of (nearly) equal score.
func (e *Expansion) MAPWorld(seed int64) ([]Fact, float64, error) {
	g, err := e.factorGraph()
	if err != nil {
		return nil, 0, err
	}
	res := infer.MAP(g, infer.MAPOptions{Seed: seed})
	var out []Fact
	for r, id := range e.res.Facts.Int32Col(kb.TPiI) {
		if v, ok := g.VarOf(id); ok && res.Assignment[v] {
			out = append(out, e.fact(r))
		}
	}
	return out, res.LogScore, nil
}

// ConvergenceDiagnostics re-runs Gibbs sampling as `chains` independent
// chains and reports the worst split-chain R̂ (values near 1 mean the
// marginals have converged; < 1.1 is the conventional threshold).
func (e *Expansion) ConvergenceDiagnostics(chains int) (maxRHat float64, converged bool, err error) {
	g, err := e.factorGraph()
	if err != nil {
		return 0, false, err
	}
	d := infer.MarginalsWithDiagnostics(g, inferOptions(e.cfg), chains)
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
// and inference observe cancellation cooperatively, and the round's span
// tree hangs off ctx's trace. A cancelled round returns a *PartialError
// and publishes nothing — the receiver generation is untouched.
func (e *Expansion) ExtendWithContext(ctx context.Context, newFacts []Fact) (*Expansion, error) {
	return e.extendWith(ctx, "extend", newFacts, false, e.cfg.RunInference)
}

// ExtendWithDeferred is ExtendWithContext minus the factor phase and
// marginal inference: the new facts and their semi-naive closure become
// visible (and durable, when a store is attached) immediately, while
// derived facts keep NaN probabilities until RefreshMarginals runs.
// This is the streaming-ingest absorb step — the bounded-staleness
// model lets a firehose of batches land at delta-grounding cost and
// amortizes the factor and inference work over every K batches. The round
// carries the last factor table its lineage computed forward, so the
// refresh grounds factors only for what the deferred rounds added, and
// infers only the components that hold a fact whose probability is
// still NaN.
func (e *Expansion) ExtendWithDeferred(ctx context.Context, newFacts []Fact) (*Expansion, error) {
	return e.extendWith(ctx, "extend", newFacts, true, false)
}

// RefreshMarginals pays down the staleness a run of ExtendWithDeferred
// rounds accumulated: it is the extend round with no new facts and
// marginal inference regardless of Config.RunInference. The closure is
// already a fixpoint, so grounding degenerates to one empty-delta
// iteration; the factor phase maintains the last table computed along
// the lineage, grounding only the clauses that name a fact the deferred
// rounds added — the table a recomputation over the whole closure
// builds, as a multiset — and an inference pass fills every pending
// marginal. The pass builds the graph of the components that hold a
// pending fact only (runInference); every other component is untouched
// since its marginals were written, so they carry forward unchanged, and
// a generation with nothing pending runs no chain. Like ExtendWith it
// returns a new Expansion on a fork of the receiver's KB and a clone of
// its fact table, persists the refreshed marginals when a store is
// attached, and answers a cancellation with a *PartialError.
func (e *Expansion) RefreshMarginals(ctx context.Context) (*Expansion, error) {
	return e.extendWith(ctx, "refresh-marginals", nil, false, true)
}

// extendWith is the extend round under the span of that name: it forks
// the receiver's KB with newFacts interned and grounds them with
// ground.Extend, under a clone of the receiver's checker. deferred skips
// the factor phase; infer runs marginal inference. A fact that CLI and
// HTTP ingest refuse (ingest.CheckFact) fails the round before any fork.
func (e *Expansion) extendWith(ctx context.Context, span string, newFacts []Fact, deferred, infer bool) (*Expansion, error) {
	for i, f := range newFacts {
		wf := ingest.Fact{Rel: f.Rel, X: f.X, XClass: f.XClass, Y: f.Y, YClass: f.YClass, Probability: f.Probability}
		if err := ingest.CheckFact(i, wf); err != nil {
			return nil, err
		}
	}
	if !e.res.Converged {
		return nil, fmt.Errorf("probkb: %s: the prior expansion has not converged", span)
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

	ctx, root := obs.StartSpan(ctx, span)
	defer root.End()
	root.SetAttr("new_facts", len(newFacts))

	// Each incremental round keeps its own in-memory journal (no file
	// sink: the original JournalPath belongs to the prior run's record).
	// ground.Extend grows a Clone of e.res.Facts: saying so lets a store
	// still in step with this generation log the batch, not a full diff.
	r := round{cfg: e.cfg, jr: journal.New(), work: work, from: e.res.Facts, infer: infer}
	if e.checker != nil {
		// The round inherits what the lineage has removed, so a streamed
		// batch cannot bring a removed entity's facts back.
		r.checker = e.checker.Clone()
	}
	opts := groundOptions(ctx, e.cfg)
	opts.SkipFactors = deferred
	return r.run(ctx, opts, func(opts ground.Options) (*ground.Result, error) {
		return ground.Extend(work, e.res, interned, opts)
	})
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
	return slices.Clone(e.res.PerIteration)
}

// IterationStats is one grounding iteration's summary. NewFacts counts
// the facts the iteration added before its constraint pass, Deleted the
// facts the pass removed, old or new; a fact derived again after the
// constraints removed it counts in both.
type IterationStats = ground.IterStats
