package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"probkb"
	"probkb/internal/engine"
	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/infer"
	"probkb/internal/kb"
	"probkb/internal/mpp"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// batchSpec fixes one batch workload: a corpus scale and the expansion
// configuration timed over it. All three ground under constraints with
// the paper's 15-iteration cap.
type batchSpec struct {
	scale float64
	// reps is how many times KB.Expand is timed.
	reps int
	// mpp grounds on the 2-segment cluster simulator with views and
	// checks the counts against a single-node oracle grounded in set-up.
	mpp bool
	// infer runs the default pipeline's sequential Gibbs pass (100
	// burn-in + 500 samples) after grounding.
	infer bool
	// kernels adds the engine kernel timings to the traced run.
	kernels bool
}

var (
	groundPaper = batchSpec{scale: 1.0, reps: 3, kernels: true}
	groundMPP   = batchSpec{scale: 0.5, reps: 4, mpp: true}
	expandInfer = batchSpec{scale: 0.5, reps: 3, infer: true}
)

const (
	constrainedIterations = 15
	mppSegments           = 2
	gibbsBurnin           = 100
	gibbsSamples          = 500
)

func (s batchSpec) config(seed int64) probkb.Config {
	cfg := probkb.Config{
		Engine: probkb.SingleNode, ApplyConstraints: true,
		MaxIterations: constrainedIterations, Seed: seed,
	}
	if s.mpp {
		cfg.Engine, cfg.Segments = probkb.MPP, mppSegments
	}
	if s.infer {
		cfg = probkb.DefaultConfig()
		cfg.Seed = seed
	}
	return cfg
}

// shape is what every repetition of a batch workload must reproduce.
type shape struct{ facts, factors, iterations, queries int }

func shapeOf(st probkb.ExpandStats) shape {
	return shape{st.TotalFacts, st.Factors, st.Iterations, st.AtomQueries + st.FactorQueries}
}

// runBatch times spec.reps whole KB.Expand calls and reports the
// quietest one.
func runBatch(e env, spec batchSpec) (*result, error) {
	if e.trace {
		return traceBatch(e, spec)
	}
	res := newResult()
	setupStart := time.Now()
	k, truth, err := synthesize(spec.scale*e.scale, e.seed)
	if err != nil {
		return nil, err
	}
	cfg := spec.config(e.seed)
	var want *shape
	if spec.mpp {
		single := cfg
		single.Engine = probkb.SingleNode
		oracle, err := k.Expand(single)
		if err != nil {
			return nil, fmt.Errorf("single-node oracle: %w", err)
		}
		s := shapeOf(oracle.Stats())
		want = &s
	}
	res.set("setup_s", time.Since(setupStart).Seconds(), 1)

	var (
		durs      []time.Duration
		last      *probkb.Expansion
		precision = math.NaN()
	)
	for rep := 0; rep < spec.reps; rep++ {
		last = nil // the previous repetition's expansion is garbage while the next one runs
		start := time.Now()
		exp, err := k.Expand(cfg)
		d := time.Since(start)
		res.attempted++
		if err != nil {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("rep %d: %v", res.attempted, err))
			continue
		}
		durs = append(durs, d)
		last = exp

		got := shapeOf(exp.Stats())
		if want == nil {
			want = &got
		} else if got != *want {
			res.problems = append(res.problems, fmt.Sprintf("rep %d: (facts, factors, iterations, queries) = %v, want %v", res.attempted, got, *want))
		}
		if spec.infer {
			p, bad := checkMarginals(exp, truth)
			if bad > 0 {
				res.problems = append(res.problems, fmt.Sprintf("rep %d: %d marginals outside [0,1] or NaN", res.attempted, bad))
			}
			if math.IsNaN(precision) {
				precision = p
			} else if p != precision {
				res.problems = append(res.problems, fmt.Sprintf("rep %d: precision %v, want %v", res.attempted, p, precision))
			}
		}
	}
	if last == nil {
		return res, nil
	}
	// Each repetition is a slice of the timed section with one operation
	// in it; see setQuietest for why the quietest one is reported.
	res.set("latency_ms", ms(sortedCopy(durs)[0]), len(durs))
	in := k.Stats()
	// Live state is the KB and the last expansion; the planted truth is
	// the benchmark's own and is let go first.
	truth = nil
	res.set("heap_live_mb", heapLiveMB(), 1)
	runtime.KeepAlive(k)
	st := last.Stats()
	res.notes = append(res.notes, fmt.Sprintf("in: %d facts, %d rules; out: %d facts (%d inferred), %d factors, %d iterations, %d queries; reps %v",
		in.Facts, in.Rules, st.TotalFacts, st.InferredFacts, st.Factors, st.Iterations, st.AtomQueries+st.FactorQueries, durs))
	if spec.infer {
		res.notes = append(res.notes, fmt.Sprintf("precision of inferred facts %.4f", precision))
	}
	return res, nil
}

// checkMarginals returns the precision of the inferred facts against the
// planted truth and how many facts carry a probability outside [0,1].
func checkMarginals(exp *probkb.Expansion, truth *probkb.Truth) (precision float64, bad int) {
	correct, total := 0, 0
	for _, f := range exp.Facts() {
		if !(f.Probability >= 0 && f.Probability <= 1) { // also catches NaN
			bad++
		}
		if f.Inferred {
			total++
			if truth.Judge(f) {
				correct++
			}
		}
	}
	if total > 0 {
		precision = float64(correct) / float64(total)
	}
	return precision, bad
}

// laps runs calls under the tracer and keeps each call's wall time by
// span name, which is where the per-layer metrics come from.
type laps struct {
	tr *tracer
	d  map[string][]time.Duration
}

func newLaps(tr *tracer) *laps { return &laps{tr: tr, d: map[string][]time.Duration{}} }

func (l *laps) do(name string, f func()) {
	l.d[name] = append(l.d[name], l.tr.do(name, f))
}

// layered is one expansion done by calling the layers directly.
type layered struct {
	kb          *kb.KB // the fork the layers worked on
	res         *ground.Result
	graph       *factor.Graph
	precleaned  int
	gibbsAllocs uint64
}

// expandLayers replays KB.ExpandContext for spec from outside: the same
// public layer functions in the same order, each under a span. What it
// leaves out is what ExpandContext adds around them — the journal, the
// obs spans and counters, the Expansion itself — which is what
// obs.expand_residual_s measures.
func expandLayers(l *laps, root string, c *synth.Corpus, spec batchSpec, seed int64) (*layered, error) {
	out := &layered{}
	var err error
	l.do(root, func() {
		var work *kb.KB
		l.do("kb.fork", func() { work = c.KB.Fork() })
		out.kb = work
		l.do("quality.preclean", func() { out.precleaned = quality.PreClean(work) })
		hook := quality.NewChecker(work).Hook()
		opts := ground.Options{
			Ctx:           context.Background(),
			MaxIterations: constrainedIterations,
			ConstraintHook: func(t *engine.Table) (deleted int) {
				l.do("quality.hook", func() { deleted = hook(t) })
				return deleted
			},
		}
		if spec.mpp {
			cluster := mpp.NewCluster(mppSegments)
			l.do("mpp.ground", func() {
				var g *ground.MPPGrounder
				if g, err = ground.NewMPP(work, opts, cluster, true); err == nil {
					out.res, err = g.Ground()
				}
			})
		} else {
			l.do("ground.ground", func() { out.res, err = ground.Ground(work, opts) })
		}
		if err != nil || !spec.infer {
			return
		}
		l.do("factor.build", func() { out.graph, err = factor.FromResult(out.res) })
		if err != nil {
			return
		}
		var probs []float64
		before := mallocs()
		l.do("infer.gibbs", func() {
			probs, _, err = infer.MarginalsContext(context.Background(), out.graph, infer.Options{Seed: seed})
		})
		out.gibbsAllocs = mallocs() - before
		if err != nil {
			return
		}
		l.do("infer.apply", func() { err = infer.ApplyMarginals(out.graph, out.res.Facts, probs) })
	})
	return out, err
}

// traceBatch is the traced run of a batch workload: the layer replay,
// then the extras only the traced run pays for.
func traceBatch(e env, spec batchSpec) (*result, error) {
	res := newResult()
	c, err := synthesizeInner(spec.scale*e.scale, e.seed)
	if err != nil {
		return nil, err
	}
	// A fresh process runs its first expansion on a heap that is still
	// growing; one discarded pass puts the two compared ones on equal terms.
	if _, err := expandLayers(newLaps(nil), "bench.warmup", c, spec, e.seed); err != nil {
		return nil, fmt.Errorf("warm-up layer pass: %w", err)
	}
	res.attempted++
	var pass *layered
	off, l, tr, err := replayTwice(res, func(l *laps) (err error) {
		pass, err = expandLayers(l, "bench.op", c, spec, e.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	wallOff, wallOn := sum(off.d["bench.op"]), sum(l.d["bench.op"])

	r := pass.res
	res.set("kb.fork_us", us(sum(l.d["kb.fork"])), 1)
	res.set("quality.preclean_s", sum(l.d["quality.preclean"]).Seconds(), 1)
	res.set("quality.hook_s", sum(l.d["quality.hook"]).Seconds(), len(l.d["quality.hook"]))
	deleted := pass.precleaned
	iters := make([]time.Duration, len(r.PerIteration))
	for i, it := range r.PerIteration {
		deleted += it.Deleted
		iters[i] = it.Elapsed
	}
	res.set("quality.deleted", float64(deleted), 1)
	layer := "ground"
	if spec.mpp {
		layer = "mpp"
	}
	res.set(layer+".load_s", r.LoadTime.Seconds(), 1)
	res.set(layer+".atoms_s", r.AtomTime.Seconds(), 1)
	res.set(layer+".factors_s", r.FactorTime.Seconds(), 1)
	if !spec.mpp {
		res.set("ground.iter_p50_ms", ms(median(iters)), len(iters))
	}
	res.set("ground.queries", float64(r.AtomQueries+r.FactorQueries), 1)
	res.set("ground.facts_out", float64(r.Facts.NumRows()), 1)
	res.set("ground.factors_out", float64(r.Factors.NumRows()), 1)
	res.set("ground.iterations", float64(r.Iterations), 1)

	if spec.mpp {
		// The same KB through the first lowering, for the ratio.
		single := spec
		single.mpp = false
		oracle, err := expandLayers(l, "bench.oracle", c, single, e.seed)
		if err != nil {
			return nil, fmt.Errorf("single-node oracle: %w", err)
		}
		res.attempted++
		res.set("mpp.vs_single_ratio", sum(l.d["mpp.ground"]).Seconds()/sum(l.d["ground.ground"]).Seconds(), 1)
		if got, want := r.Facts.NumRows(), oracle.res.Facts.NumRows(); got != want {
			res.problems = append(res.problems, fmt.Sprintf("mpp grounded %d facts, single-node oracle %d", got, want))
		}
	}
	if spec.infer {
		gibbs := sum(l.d["infer.gibbs"])
		res.set("factor.build_s", sum(l.d["factor.build"]).Seconds(), 1)
		res.set("factor.vars", float64(pass.graph.NumVars()), 1)
		res.set("factor.factors", float64(pass.graph.NumFactors()), 1)
		res.set("infer.gibbs_s", gibbs.Seconds(), 1)
		res.set("infer.mvar_sweeps_per_s", float64(pass.graph.NumVars())*(gibbsBurnin+gibbsSamples)/gibbs.Seconds()/1e6, 1)
		res.set("infer.gibbs_allocs", float64(pass.gibbsAllocs), 1)
		res.set("infer.apply_s", sum(l.d["infer.apply"]).Seconds(), 1)

		// The ROADMAP's anomaly: the chromatic sampler against the
		// sequential one on the same graph.
		l.do("infer.chromatic", func() {
			_, _, err = infer.MarginalsContext(context.Background(), pass.graph, infer.Options{Seed: e.seed, Parallel: true})
		})
		if err != nil {
			return nil, fmt.Errorf("chromatic gibbs: %w", err)
		}
		res.set("infer.chromatic_s", sum(l.d["infer.chromatic"]).Seconds(), 1)

		// What KB.Expand costs beyond the layers it calls.
		k, _, err := synthesize(spec.scale*e.scale, e.seed)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		exp, err := k.Expand(spec.config(e.seed))
		if err != nil {
			return nil, fmt.Errorf("reference expand: %w", err)
		}
		res.attempted++
		res.set("obs.expand_residual_s", (time.Since(start) - wallOff).Seconds(), 1)
		if got, want := exp.Stats().TotalFacts, r.Facts.NumRows(); got != want {
			res.problems = append(res.problems, fmt.Sprintf("layer replay grounded %d facts, KB.Expand %d", want, got))
		}
	}
	if spec.kernels {
		if err := timeKernels(res, l, r.Facts); err != nil {
			return nil, err
		}
	}
	return res, writeTrace(e, res, tr, wallOn)
}

// replayTwice runs a layer replay once with spans off and once with spans
// on; the difference between the two is the tracing overhead. Per-layer
// numbers come from the second pass.
func replayTwice(res *result, replay func(*laps) error) (off, on *laps, tr *tracer, err error) {
	off = newLaps(nil)
	if err := replay(off); err != nil {
		return nil, nil, nil, fmt.Errorf("layer replay, spans off: %w", err)
	}
	tr = newTracer()
	on = newLaps(tr)
	if err := replay(on); err != nil {
		return nil, nil, nil, fmt.Errorf("layer replay, spans on: %w", err)
	}
	wallOff, wallOn := sum(off.d["bench.op"]), sum(on.d["bench.op"])
	res.attempted += len(off.d["bench.op"]) + len(on.d["bench.op"])
	res.set("trace.overhead_pct", 100*(wallOn.Seconds()-wallOff.Seconds())/wallOff.Seconds(), 1)
	return off, on, tr, nil
}

// writeTrace stores the run's spans and notes how much of the timed
// pass the layers (everything but the benchmark's own glue between
// calls) account for.
func writeTrace(e env, res *result, tr *tracer, timed time.Duration) error {
	self := selfTimes(tr.spans)
	path, err := tr.write(e.outDir, e.workload, e.seed, timed, self)
	if err != nil {
		return err
	}
	res.notes = append(res.notes, fmt.Sprintf("%s: %d spans; layer self times cover %.1f%% of the %.3fs traced pass",
		path, len(tr.spans), 100*(1-self["bench.op"].Seconds()/timed.Seconds()), timed.Seconds()))
	return nil
}
