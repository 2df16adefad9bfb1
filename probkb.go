// Package probkb is a probabilistic knowledge base with scalable
// knowledge expansion, reproducing the ProbKB system of
//
//	Yang Chen, Daisy Zhe Wang.
//	"Knowledge Expansion over Probabilistic Knowledge Bases." SIGMOD 2014.
//
// A KB holds weighted facts, weighted Horn rules (a Markov logic
// network), and functional constraints. Expand grounds the MLN with the
// paper's batched relational algorithm — all rules of a structural
// partition applied by one join — on either a single-node engine or a
// simulated shared-nothing MPP cluster, applies the paper's quality-
// control methods (rule cleaning, semantic constraints, ambiguity
// removal), and runs Gibbs marginal inference over the resulting ground
// factor graph so every inferred fact carries a probability.
//
// Quick start:
//
//	k := probkb.New()
//	k.AddFact("rich_in", "kale", "Food", "calcium", "Nutrient", 0.9)
//	k.AddFact("prevents", "calcium", "Nutrient", "osteoporosis", "Disease", 0.8)
//	k.MustAddRule("1.1 prevents(x:Food, y:Disease) :- rich_in(x:Food, z:Nutrient), prevents(z:Nutrient, y:Disease)")
//	exp, err := k.Expand(probkb.DefaultConfig())
//	// exp.Facts() now contains prevents(kale, osteoporosis) with its probability.
package probkb

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"time"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/infer"
	"probkb/internal/kb"
	"probkb/internal/mpp"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
	"probkb/internal/quality"
	"probkb/internal/store"
)

var (
	expandTotal  = obs.NewCounterVec("probkb_expand_total", "Knowledge-expansion runs completed, by engine.", "engine")
	stageSeconds = obs.NewHistogramVec("probkb_expand_stage_seconds", "Per-stage wall time of expansion runs.", nil, "stage")
	// The split of the latest inference pass's graph (expansion.go).
	inferComponents = obs.NewGauge("probkb_infer_components",
		"Connected components the latest inference pass built: those holding a pending marginal, plus the sampled ones when the chain runs.")
	inferExact = obs.NewGauge("probkb_infer_exact_components",
		"Components the latest inference pass solved by enumeration.")
	inferSampledVars = obs.NewGauge("probkb_infer_sampled_vars",
		"Variables the latest inference pass left to the Gibbs chain.")
	inferMaxComponent = obs.NewGauge("probkb_infer_max_component",
		"Variables in the largest component the latest inference pass built.")
)

// Engine selects the execution substrate for grounding.
type Engine int

const (
	// SingleNode runs the batched grounding queries on the in-process
	// relational engine (the paper's "ProbKB" configuration on
	// PostgreSQL).
	SingleNode Engine = iota
	// MPP runs on the shared-nothing cluster simulator with
	// redistributed materialized views ("ProbKB-p" on Greenplum).
	MPP
	// MPPNoViews is MPP without the view optimization ("ProbKB-pn");
	// exists mainly for the Figure 6(c) comparison.
	MPPNoViews
	// Baseline runs the Tuffy-T per-rule grounder — O(#rules) queries
	// per iteration. It exists for comparison benchmarks.
	Baseline
)

// String names the engine as in the paper.
func (e Engine) String() string {
	switch e {
	case SingleNode:
		return "ProbKB"
	case MPP:
		return "ProbKB-p"
	case MPPNoViews:
		return "ProbKB-pn"
	case Baseline:
		return "Tuffy-T"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ConstraintType mirrors Definition 9: TypeI means the subject determines
// the object (a person is born in one place); TypeII the converse (a
// country has one capital).
type ConstraintType int

// Functional-constraint argument positions.
const (
	TypeI  ConstraintType = kb.TypeI
	TypeII ConstraintType = kb.TypeII
)

// Config controls Expand.
type Config struct {
	// Engine picks the substrate; Segments sizes the MPP cluster
	// (ignored for SingleNode; 0 means 4).
	Engine   Engine
	Segments int

	// EngineWorkers sizes the morsel-parallel worker pool relational
	// query plans run with. On SingleNode and Baseline, 0 means
	// runtime.NumCPU() and 1 forces serial execution; on MPP it is the
	// per-segment budget, where 0 (and 1) keep the historical
	// serial-per-segment behavior. Results — and canonical journals —
	// are identical for every setting, which is why Hash excludes it
	// (like Faults and retries).
	EngineWorkers int

	// MaxIterations caps the grounding fixpoint loop; 0 runs to
	// convergence (under ApplyConstraints, to convergence or
	// DefaultConstrainedIterations). The loop ends at its fixpoint either
	// way and every cap at or above the convergence iteration gives the
	// same expansion, fact IDs included; a cap is a bound on the work, and
	// a run it cuts short reports Converged=false. Machine-built KBs
	// without constraints can blow up (Section 6.1.1), so runs with
	// ApplyConstraints=false should set one.
	MaxIterations int

	// ApplyConstraints enables semantic constraints: Query 3 runs once
	// up front and again after every grounding iteration, greedily
	// removing entities that violate functional constraints. An entity
	// removed during grounding stays removed in the position it violated,
	// for this expansion and every ExtendWith round that continues it.
	ApplyConstraints bool

	// RuleCleanTheta keeps the top-θ fraction of rules by statistical
	// significance before grounding; 1 (or 0, the zero value) disables
	// cleaning.
	RuleCleanTheta float64

	// RunInference runs marginal inference after grounding and writes
	// each inferred fact's probability into the result. Without it,
	// inferred facts carry probability NaN. The ground graph's connected
	// components are independent: one of at most 16 variables is solved
	// by exact enumeration, only larger ones are Gibbs-sampled (DESIGN.md
	// §5).
	RunInference bool
	// GibbsBurnin and GibbsSamples size the sequential sampling run
	// (defaults 100 and 500). They matter only for components too large
	// to enumerate: every other marginal is exact whatever they say.
	GibbsBurnin  int
	GibbsSamples int
	// Seed makes the sampled marginals reproducible. An enumerated
	// component's marginals do not depend on it — on a KB whose every
	// component is small, no output does.
	Seed int64

	// JournalPath, when non-empty, streams the run journal to this file:
	// one JSON line per event (run header, grounding iterations, query
	// profiles with operator trees, motion volumes, constraint repairs,
	// Gibbs convergence checkpoints, run summary). Every run also keeps
	// a bounded in-memory journal reachable via Expansion.Journal(),
	// whether or not a path is set.
	JournalPath string

	// OnIteration, when non-nil, observes each grounding iteration as it
	// completes — live progress instead of polling PerIteration after
	// the fact.
	OnIteration func(IterationStats)
	// OnGibbsSweep, when non-nil, observes every Gibbs sweep of marginal
	// inference as it completes — none when no component is large enough
	// to be sampled. It runs on the sampling goroutine; keep it cheap.
	OnGibbsSweep func(GibbsSweep)

	// Persist, when non-nil, makes the run durable: on every engine, each
	// completed grounding iteration's delta (new facts and
	// constraint-repair deletes) is appended to the store's WAL before the
	// next iteration starts, and inferred marginals are appended after
	// inference. A crash at any point recovers to the last completed
	// iteration via OpenStore. Persistence never changes results, so the
	// field is excluded from Hash() like the callbacks.
	Persist *Store

	// Faults, when non-nil, deterministically injects failures, worker
	// panics and stragglers into MPP segment tasks — chaos testing for
	// the distributed path. Injected faults never change results (tasks
	// are idempotent and retried), so this field is excluded from
	// Hash(). Ignored by non-MPP engines.
	Faults *FaultConfig
	// SegmentRetries re-executes a failed MPP segment task up to this
	// many times before the failure propagates; 0 disables retries.
	// RetryBackoff is the base delay before retry k (scaled linearly by
	// k). Both are excluded from Hash() for the same reason as Faults.
	SegmentRetries int
	RetryBackoff   time.Duration
}

// FaultConfig configures deterministic fault injection for MPP segment
// tasks (see Config.Faults). Whether a given task attempt faults is a
// pure function of the seed, so equal-seed runs inject identical faults
// regardless of scheduling. Rates are per-attempt probabilities tested
// in order (fail, panic, straggle) against one uniform draw; their sum
// should stay at or below 1.
type FaultConfig struct {
	// Seed selects the fault sequence.
	Seed int64
	// FailRate injects plain task failures.
	FailRate float64
	// PanicRate injects worker panics, exercising the task runner's
	// last-resort recover.
	PanicRate float64
	// StraggleRate injects stragglers that sleep StraggleDelay.
	StraggleRate  float64
	StraggleDelay time.Duration
}

// PartialError reports an expansion cut short by its context — the run
// was cancelled or hit its deadline mid-phase. Partial carries the work
// completed so far: the facts grounded up to the last finished
// iteration and, when inference was interrupted after collecting at
// least one sample, marginals normalized over the samples actually
// collected. Partial.Stats().Converged is always false. The error
// unwraps to the underlying context error, so
// errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both see through it.
type PartialError struct {
	// Phase names the interrupted pipeline phase: "ground" or "infer"
	// for expansions, "sql" for a cancelled ad-hoc query (whose Partial
	// is nil — a cut-short SELECT has no usable partial result).
	Phase string
	// Partial is the expansion built from the completed work.
	Partial *Expansion
	// Err is the context error that stopped the run.
	Err error
}

// Error implements error.
func (e *PartialError) Error() string {
	return fmt.Sprintf("probkb: expansion interrupted during %s: %v", e.Phase, e.Err)
}

// Unwrap exposes the underlying context error to errors.Is/As.
func (e *PartialError) Unwrap() error { return e.Err }

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// GibbsSweep is one Gibbs sweep's progress report (see Config.OnGibbsSweep):
// the sweep (1-based, burn-in counted), whether it was burn-in, the
// variables resampled per sweep, how many of them flipped, and the wall
// time since inference started.
type GibbsSweep = infer.SweepStats

// DefaultConstrainedIterations bounds grounding when semantic constraints
// are active and no explicit MaxIterations is set (the paper grounds its
// constrained runs in 15 iterations). It is a safety bound, not what ends
// the run: constrained grounding reaches a fixpoint of its own (8
// iterations on the paper-scale synthetic corpus). Without constraints
// the closure is monotone and always terminates, so no implicit bound
// applies.
const DefaultConstrainedIterations = 15

// DefaultConfig enables the full pipeline on the single-node engine:
// constraints on, no rule cleaning, inference on.
func DefaultConfig() Config {
	return Config{
		Engine:           SingleNode,
		ApplyConstraints: true,
		RunInference:     true,
	}
}

// Hash fingerprints the run-determining configuration as a 16-hex-digit
// FNV-64a digest. The journal header carries it next to the seed, so
// two journals are comparable exactly when their runs had identical
// inputs — the determinism contract Canonicalize diffs against.
// Callback fields and JournalPath do not affect results and are
// excluded.
func (c Config) Hash() string {
	h := fnv.New64a()
	// EngineWorkers is deliberately absent: worker counts never change
	// results (engine.Opts), so runs differing only in parallelism
	// remain journal-comparable.
	fmt.Fprintf(h, "engine=%d segments=%d maxiter=%d constraints=%t theta=%g infer=%t burnin=%d samples=%d seed=%d",
		int(c.Engine), c.Segments, c.MaxIterations, c.ApplyConstraints,
		c.RuleCleanTheta, c.RunInference, c.GibbsBurnin, c.GibbsSamples, c.Seed)
	return fmt.Sprintf("%016x", h.Sum64())
}

// KB is a probabilistic knowledge base Γ = (E, C, R, Π, L).
type KB struct {
	inner *kb.KB
}

// New returns an empty knowledge base.
func New() *KB { return &KB{inner: kb.New()} }

// Load reads a KB from disk: a directory of text files (see Save), or a
// snapshot file written by SaveSnapshot.
func Load(path string) (*KB, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var inner *kb.KB
	if info.IsDir() {
		inner, err = kb.LoadDir(path)
	} else {
		inner, err = loadSnapshot(path)
	}
	if err != nil {
		return nil, err
	}
	return &KB{inner: inner}, nil
}

func loadSnapshot(path string) (*kb.KB, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tables, err := store.DecodeTables(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	inner, _, err := store.KBFromTables(tables)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return inner, nil
}

// Save writes the KB as a directory of text files: relations.tsv,
// facts.tsv, rules.txt, constraints.tsv, members.tsv, taxonomy.tsv.
func (k *KB) Save(dir string) error { return k.inner.SaveDir(dir) }

// SaveSnapshot writes the KB as a single snapshot file in the durable
// store's columnar format — the fast bulkload path: loads are ID-stable
// (unlike the text directory, which re-interns symbols) and faster.
// Load() accepts either form. The file is replaced atomically: a crash
// mid-write leaves the previous snapshot intact.
func (k *KB) SaveSnapshot(path string) error {
	tables, err := store.KBTables(k.inner, 0)
	if err != nil {
		return err
	}
	return store.WriteAtomic(store.OSFS{}, filepath.Dir(path), filepath.Base(path), store.EncodeTables(tables))
}

// AddFact records the weighted fact rel(x, y) with the arguments' classes.
// Re-adding an existing fact keeps the maximum weight. It reports whether
// the fact was new.
func (k *KB) AddFact(rel, x, xClass, y, yClass string, weight float64) bool {
	_, fresh := k.inner.InternFact(rel, x, xClass, y, yClass, weight)
	return fresh
}

// AddRule parses and adds a weighted Horn rule, e.g.
//
//	1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)
//
// Bodies may have one or two atoms over at most three variables; every
// variable needs a class annotation on at least one occurrence.
func (k *KB) AddRule(line string) error {
	c, err := k.inner.ParseRule(line)
	if err != nil {
		return err
	}
	return k.inner.AddRule(c)
}

// MustAddRule is AddRule, panicking on error; for statically known rules.
func (k *KB) MustAddRule(line string) {
	if err := k.AddRule(line); err != nil {
		panic(err)
	}
}

// AddConstraint declares relation rel functional: each subject (TypeI) or
// object (TypeII) has at most degree partners. Violating entities are
// treated as errors or ambiguous names and removed during expansion when
// Config.ApplyConstraints is set.
func (k *KB) AddConstraint(rel string, typ ConstraintType, degree int) error {
	id, ok := k.inner.RelDict.Lookup(rel)
	if !ok {
		return fmt.Errorf("probkb: constraint over unknown relation %q", rel)
	}
	return k.inner.AddConstraint(kb.Constraint{Rel: id, Type: int(typ), Degree: degree})
}

// Stats summarizes the KB (Table 2 of the paper): counts of relations,
// rules, entities, facts, classes and constraints. Its String method
// renders the table's three lines.
type Stats = kb.Stats

// Stats returns the KB's summary statistics.
func (k *KB) Stats() Stats { return k.inner.Stats() }

// DeclareSubclass records sub ⊆ super in the class hierarchy (Remark 1
// of the paper's Definition 1): members of sub automatically become
// members of super. Cycles are rejected.
func (k *KB) DeclareSubclass(sub, super string) error {
	return k.inner.DeclareSubclass(k.inner.Classes.Intern(sub), k.inner.Classes.Intern(super))
}

// Validate checks the KB's internal consistency (fact signatures, class
// memberships, rule shapes, constraint sanity) and returns every problem
// found; nil means clean.
func (k *KB) Validate() []error { return k.inner.Validate() }

// RuleScore reports one rule's statistical significance (Section 5.3):
// the smoothed conditional probability of the head given the body,
// estimated from the observed facts.
type RuleScore struct {
	Rule    string // the rule in rules.txt syntax
	Matches int    // body groundings found among the facts
	Hits    int    // of those, with the head also present
	Score   float64
}

// RuleScores scores every rule; Expand's RuleCleanTheta keeps the top-θ
// fraction of this ranking.
func (k *KB) RuleScores() []RuleScore {
	scores := quality.ScoreRules(k.inner)
	out := make([]RuleScore, len(scores))
	for i, s := range scores {
		out[i] = RuleScore{
			Rule:    k.inner.FormatRule(k.inner.Rules[s.Index]),
			Matches: s.Matches,
			Hits:    s.Hits,
			Score:   s.Score,
		}
	}
	return out
}

// Expand performs knowledge expansion: quality control, batched MLN
// grounding, and (optionally) marginal inference. The receiver is not
// modified; the returned Expansion holds the enlarged fact set.
func (k *KB) Expand(cfg Config) (*Expansion, error) {
	return k.ExpandContext(context.Background(), cfg)
}

// ExpandContext is Expand under the caller's tracing context: the run
// records an "expand" span tree — quality control, grounding (with
// per-iteration children), factor-graph construction, and inference —
// into the obs tracer, visible via `probkb --trace` on the CLI and
// GET /debug/traces on a running server. A run cut short by ctx returns
// a *PartialError carrying what it completed.
func (k *KB) ExpandContext(ctx context.Context, cfg Config) (*Expansion, error) {
	ctx, root := obs.StartSpan(ctx, "expand")
	defer root.End()
	root.SetAttr("engine", cfg.Engine.String())

	// Every run records a bounded in-memory journal; a JournalPath adds
	// the JSONL file sink. The file closes on every return path; the
	// in-memory events outlive it via Expansion.Journal().
	r := round{cfg: cfg, jr: journal.New(), infer: cfg.RunInference}
	if cfg.JournalPath != "" {
		if err := r.jr.SinkTo(cfg.JournalPath); err != nil {
			return nil, fmt.Errorf("probkb: journal: %w", err)
		}
	}
	defer r.jr.Close()
	if cfg.Engine == MPP || cfg.Engine == MPPNoViews {
		if r.segs = cfg.Segments; r.segs <= 0 {
			r.segs = 4
		}
	}

	// Quality control: rule cleaning, then the up-front Query 3 pass.
	qualityStart := time.Now()
	_, qualitySpan := obs.StartSpan(ctx, "quality")
	if cfg.RuleCleanTheta > 0 && cfg.RuleCleanTheta < 1 {
		r.work = quality.CleanRules(k.inner, cfg.RuleCleanTheta)
	} else {
		// A copy-on-write fork, not a deep clone: the run only pays for
		// a copy if quality repair actually deletes facts, and the
		// receiver stays frozen for concurrent readers either way.
		r.work = k.inner.Fork()
	}
	opts := groundOptions(ctx, cfg)
	// The grounders read src. The generation keeps r.work, the KB it was
	// handed: the up-front Query 3 cleans a fork of it that only the
	// grounding reads.
	src := r.work
	if cfg.ApplyConstraints {
		// Query 3 runs once before inference starts (Section 6.1.1), and
		// again after every grounding iteration (Algorithm 1).
		src = r.work.Fork()
		precleaned := quality.PreClean(src)
		qualitySpan.SetAttr("precleaned", precleaned)
		r.checker = quality.NewCheckerAfterPreClean(src)
		if opts.MaxIterations == 0 {
			opts.MaxIterations = DefaultConstrainedIterations
		}
	}
	qualitySpan.SetAttr("rules", len(r.work.Rules))
	qualitySpan.End()
	observeStage("quality", qualityStart)

	exp, err := r.run(ctx, opts, func(opts ground.Options) (*ground.Result, error) {
		switch cfg.Engine {
		case SingleNode:
			return ground.Ground(src, opts)
		case Baseline:
			g, err := ground.NewTuffy(src, opts)
			if err != nil {
				return nil, err
			}
			return g.Ground()
		case MPP, MPPNoViews:
			cl := mpp.NewCluster(r.segs)
			cl.SetContext(ctx)
			cl.SetJournal(r.jr)
			cl.SetWorkers(cfg.EngineWorkers)
			if f := cfg.Faults; f != nil {
				cl.SetFaults(&mpp.FaultPlan{
					Seed: f.Seed, FailRate: f.FailRate, PanicRate: f.PanicRate,
					StraggleRate: f.StraggleRate, StraggleDelay: f.StraggleDelay,
				})
			}
			cl.SetRetry(mpp.RetryPolicy{MaxRetries: cfg.SegmentRetries, Backoff: cfg.RetryBackoff})
			g, err := ground.NewMPP(src, opts, cl, cfg.Engine == MPP)
			if err != nil {
				return nil, err
			}
			return g.Ground()
		default:
			return nil, fmt.Errorf("probkb: unknown engine %v", cfg.Engine)
		}
	})
	if err != nil {
		return nil, err
	}
	root.SetAttr("facts", exp.res.Facts.NumRows())
	expandTotal.With(cfg.Engine.String()).Inc()
	return exp, nil
}

// round is one pass of the pipeline of Figure 1 after quality control:
// Algorithm 1's grounding, then the factor graph and marginal inference,
// journaled and made durable as it goes. Expand, ExtendWith and
// RefreshMarginals each run one; they differ in the KB and checker they
// hand it and in the grounding function it calls.
type round struct {
	cfg Config
	jr  *journal.Writer
	// segs is the MPP cluster size the run_start header reports.
	segs int
	// work is the KB the round grounds and renders its facts through.
	work *kb.KB
	// from is the table the round's TΠ starts as a Fork of (ground.Extend),
	// nil when grounding builds its own. A store in step with from logs
	// only the rows the round appended and the weights it wrote.
	from *engine.Table
	// checker, when non-nil, runs as the constraint hook.
	checker *quality.Checker
	// infer runs marginal inference after grounding.
	infer bool
}

// run emits the round's run_start header; wires the journal, the
// constraint hook and one iteration observer into opts (it calls
// Config.OnIteration, then makes the iteration's delta durable in the
// store before the next iteration starts); grounds through grnd; and
// builds the round's expansion — running inference when asked —
// persisting after each phase and closing the journal with run_end. A
// grounding or inference phase cut short by its context returns a
// *PartialError carrying the work completed.
func (r round) run(ctx context.Context, opts ground.Options, grnd func(ground.Options) (*ground.Result, error)) (*Expansion, error) {
	r.jr.Emit(journal.TypeRunStart, journal.Header{
		Engine:     r.cfg.Engine.String(),
		Segments:   r.segs,
		Seed:       r.cfg.Seed,
		ConfigHash: r.cfg.Hash(),
		Start:      time.Now().UTC().Format(time.RFC3339),
	})
	opts.Journal = r.jr
	cb, p := r.cfg.OnIteration, r.cfg.Persist
	if p != nil {
		p.inner.SetJournal(r.jr)
		defer p.inner.SetJournal(nil)
	}
	if cb != nil || p != nil {
		opts.Observer = func(st ground.IterStats, tpi *engine.Table) {
			if cb != nil {
				cb(st)
			}
			// The observer cannot return an error: latch it for the final
			// sync to surface.
			if p != nil && p.err == nil {
				p.err = p.sync(r.work, tpi, r.from, nil)
			}
		}
	}
	if r.checker != nil {
		opts.ConstraintHook = journaledHook(r.jr, r.checker)
	}

	groundStart := time.Now()
	res, err := grnd(opts)
	if err != nil && (res == nil || !isCtxErr(err)) {
		return nil, err
	}
	observeStage("ground", groundStart)
	exp := newExpansion(r.work, res, r.cfg, r.jr, r.checker)
	if err != nil {
		// A cancelled or deadline-exceeded grounder still returns the
		// facts derived so far; surface them instead of dropping the
		// completed iterations.
		exp.emitRunEnd()
		return nil, &PartialError{Phase: "ground", Partial: exp, Err: err}
	}
	// The observer already made each iteration durable, on every engine;
	// this final sync surfaces any append error latched inside it.
	if err := persistFinal(p, r.work, res.Facts, r.from, nil); err != nil {
		return nil, err
	}
	if r.infer {
		filled, err := exp.runInference(ctx)
		if err != nil {
			if isCtxErr(err) {
				// The run as a whole did not complete: a partial
				// expansion never reports Converged, even though the
				// grounding fixpoint itself was reached.
				res.Converged = false
				exp.emitRunEnd()
				return nil, &PartialError{Phase: "infer", Partial: exp, Err: err}
			}
			return nil, err
		}
		// Inference wrote the pending facts' weights; persist the
		// marginals so recovery carries the probabilities too.
		if err := persistFinal(p, r.work, res.Facts, r.from, filled); err != nil {
			return nil, err
		}
	}
	exp.emitRunEnd()
	return exp, nil
}

// journaledHook builds the grounders' constraint hook with a journal
// feed: each pass that found violations or deleted rows records a
// constraint_repair event tagged with the iteration the hook ran in.
func journaledHook(jr *journal.Writer, checker *quality.Checker) func(*engine.Table) int {
	iter := 0
	inner := checker.HookWithObserver(func(r quality.Repair) {
		jr.Emit(journal.TypeConstraintRepair, journal.Repair{
			Iteration: iter, Violations: r.Violations, Deleted: r.Deleted,
		})
	})
	return func(tpi *engine.Table) int {
		iter++
		return inner(tpi)
	}
}

// groundOptions builds the grounding options every round starts from:
// the tracing context and semi-naive evaluation — the one order this
// package grounds in, on every engine but the Tuffy-T baseline, which is
// naive by definition. The constraint hook deletes only what it will
// delete again (quality.Checker), which is what keeps a Δ-only iteration
// sound under it (DESIGN.md §5).
func groundOptions(ctx context.Context, cfg Config) ground.Options {
	return ground.Options{MaxIterations: cfg.MaxIterations, Ctx: ctx, Workers: cfg.EngineWorkers, SemiNaive: true}
}

// inferOptions builds the sampling options for cfg.
func inferOptions(cfg Config) infer.Options {
	return infer.Options{
		Burnin:      cfg.GibbsBurnin,
		Samples:     cfg.GibbsSamples,
		Seed:        cfg.Seed,
		OnIteration: cfg.OnGibbsSweep,
	}
}

// observeStage records one expansion stage's wall time.
func observeStage(stage string, start time.Time) {
	stageSeconds.With(stage).Observe(time.Since(start).Seconds())
}

// probability converts a stored weight to the exported probability:
// observed weights pass through, NULL becomes NaN.
func probability(w float64) float64 {
	if engine.IsNullFloat64(w) {
		return math.NaN()
	}
	return w
}
