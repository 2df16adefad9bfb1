// Package infer implements marginal inference over ground factor graphs.
//
// The paper delegates this phase to an external engine (a parallel Gibbs
// sampler on GraphLab [14, 29]) because its ground graph is one giant
// component. Ours factorises, and inference follows the factorisation:
//
//   - a variable no clause factor touches is independent of the rest of
//     the MLN: its marginal is the closed form σ(Σ unit weights);
//   - a connected component of at most exactMaxVars variables is solved
//     by exact enumeration (exact.go);
//   - what is left is sampled, by a sequential Gibbs sweep or a
//     *chromatic* parallel one: variables are greedily colored so no two
//     neighbors share a color, then each color class is sampled
//     synchronously in parallel — the construction of Gonzalez et al.
//     [14] the paper cites, which preserves Gibbs correctness because a
//     variable's conditional depends only on other colors.
//
// One conditional kernel (logOdds) serves all of it.
package infer

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"probkb/internal/engine"
	"probkb/internal/factor"
	"probkb/internal/kb"
	"probkb/internal/obs"
)

// chainFeed is the process-wide view of a whole-graph chain: its
// cumulative sweep and flip counters and the live throughput gauge.
// Together with obs.Gibbs (the watchdogs' chain-health singleton) it is
// what MarginalsContext installs and query-time local sampling does not:
// a point query's few-variable chain is neither "the chain" an operator
// watches nor worth a mutex round-trip per sweep.
type chainFeed struct {
	sweeps *obs.Counter
	flips  *obs.Counter
	sps    *obs.Gauge
}

func newChainFeed(chain int) *chainFeed {
	label := obs.L("chain", strconv.Itoa(chain))
	return &chainFeed{
		sweeps: obs.Default.Counter("probkb_infer_sweeps_total", label),
		flips:  obs.Default.Counter("probkb_infer_flips_total", label),
		sps:    obs.Default.Gauge("probkb_infer_samples_per_second"),
	}
}

// chain0 is the feed of every single-chain run, resolved once;
// MarginalsWithDiagnostics' numbered chains resolve theirs per run.
var chain0 *chainFeed

func init() {
	obs.Default.Help("probkb_infer_sweeps_total", "Gibbs sweeps executed, by chain.")
	obs.Default.Help("probkb_infer_flips_total", "Variable value flips across Gibbs sweeps, by chain.")
	obs.Default.Help("probkb_infer_samples_per_second", "Live variable-resample throughput of the running Gibbs chain.")
	obs.Default.Help("probkb_infer_rhat_max", "Worst split-chain Gelman-Rubin R-hat of the latest diagnostics run.")
	chain0 = newChainFeed(0)
}

// SweepStats reports one Gibbs sweep's progress — the live view of a
// long-running stochastic process: the MCMC analogue of a grounding
// iteration's IterStats.
type SweepStats struct {
	// Sweep is 1-based and counts burn-in sweeps too.
	Sweep int
	// Burnin reports whether the sweep was discarded.
	Burnin bool
	// Vars is the number of variables resampled per sweep: those in
	// components above the enumeration bound. The rest get their marginals
	// exactly, by enumeration or in closed form.
	Vars int
	// Flips is how many variables changed value in this sweep; the flip
	// rate falling toward its stationary level is the cheapest mixing
	// signal available.
	Flips int
	// Elapsed is wall time since the run started.
	Elapsed time.Duration
}

// Options configures an inference run. Burnin, Samples, Seed, Parallel
// and the observers concern the chain only: they change nothing about a
// graph whose every component is enumerated.
type Options struct {
	// Burnin sweeps are discarded before collecting.
	Burnin int
	// Samples sweeps are collected for the marginal estimates.
	Samples int
	// Seed makes the chain reproducible.
	Seed int64
	// Parallel enables the chromatic sampler.
	Parallel bool
	// Workers bounds the goroutines enumerating components and, per
	// color, sampling; 0 means NumCPU. No result depends on it.
	Workers int
	// OnIteration, when non-nil, observes every sweep as it completes —
	// progress without polling after the fact. It runs on the sampling
	// goroutine; keep it cheap.
	OnIteration func(SweepStats)
	// OnCheckpoint, when non-nil, receives a Checkpoint every
	// CheckpointEvery sweeps and on the final sweep, carrying the
	// convergence timeline (split-half R-hat / ESS over TrackVars
	// variables). It runs on the sampling goroutine.
	OnCheckpoint func(Checkpoint)
	// CheckpointEvery is the sweep interval between checkpoints; 0 means
	// DefaultCheckpointEvery (only relevant with OnCheckpoint set).
	CheckpointEvery int
	// TrackVars caps how many variables the timeline tracks for
	// per-atom diagnostics; 0 means a default of 32.
	TrackVars int
	// Chain labels this run's metrics series (MarginalsWithDiagnostics
	// runs several chains and numbers them); single runs leave it 0.
	Chain int
}

func (o Options) withDefaults() Options {
	if o.Burnin == 0 {
		o.Burnin = 100
	}
	if o.Samples == 0 {
		o.Samples = 500
	}
	if o.Workers == 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	return o
}

// Marginals computes P(X_v = 1) for every variable: exactly for the
// variables no clause factor touches and for every connected component
// small enough to enumerate, by Gibbs sampling for the rest.
func Marginals(g *factor.Graph, opts Options) []float64 {
	probs, _, _ := MarginalsContext(context.Background(), g, opts)
	return probs
}

// MarginalsContext is Marginals with cooperative cancellation: the
// enumeration checks ctx once per component, the sampler once per sweep
// (sequential) or per color class (chromatic). It returns the marginals,
// the number of post-burn-in sweeps behind the sampled ones — the
// requested Samples when there was nothing to sample — and the context's
// error (nil on a full run). Cancelled before the enumeration finished
// or any sweep was collected, it returns nil and 0; after that, the
// sampled marginals normalized over the sweeps actually collected.
func MarginalsContext(ctx context.Context, g *factor.Graph, opts Options) ([]float64, int, error) {
	feed := chain0
	if opts.Chain != 0 {
		feed = newChainFeed(opts.Chain)
	}
	return marginals(ctx, g, opts.withDefaults(), feed)
}

// marginals is the one inference routine, applied to a whole ground
// graph by MarginalsContext and to one neighborhood by
// LocalMarginalContext (feed nil): closed form, enumeration, then one
// chain over whatever components exceed exactMaxVars. The enumeration
// runs before the chain exists, so the watchdogs never see an active
// chain whose sweep does not advance, and a run with nothing to sample
// never touches the feed.
func marginals(ctx context.Context, g *factor.Graph, opts Options, feed *chainFeed) ([]float64, int, error) {
	if g.NumVars() == 0 {
		return nil, 0, ctx.Err()
	}
	probs, swept, err := exactMarginals(ctx, g, exactMaxVars, opts.Workers)
	if err != nil {
		return nil, 0, err
	}
	if len(swept) == 0 {
		return probs, opts.Samples, nil
	}
	collected, err := sample(ctx, g, swept, probs, opts, feed)
	if collected == 0 {
		return nil, 0, err
	}
	return probs, collected, err
}

// sample runs one chain over sampled — whole components of g, ascending
// — and overwrites their entries of probs with the estimates from the
// sweeps it collected, whose number it returns.
func sample(ctx context.Context, g *factor.Graph, sampled []int32, probs []float64, opts Options, feed *chainFeed) (int, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	assign := make([]bool, g.NumVars())
	for _, v := range sampled {
		assign[v] = rng.Intn(2) == 0
	}
	ob := newSweepObserver(sampled, assign, opts, feed)
	var sweep func() error
	if opts.Parallel {
		sweep = chromaticSweep(ctx, g, sampled, assign, opts)
	} else {
		sweep = sequentialSweep(ctx, g, sampled, assign, rng)
	}

	// counts[k] is how many collected sweeps left sampled[k] true.
	counts := make([]int64, len(sampled))
	collected := 0
	var err error
	for s := 1; s <= opts.Burnin+opts.Samples; s++ {
		if err = sweep(); err != nil {
			break
		}
		if s > opts.Burnin {
			for k, v := range sampled {
				if assign[v] {
					counts[k]++
				}
			}
			collected++
		}
		ob.observe(s, assign)
	}
	ob.finish()

	if collected > 0 {
		for k, v := range sampled {
			probs[v] = float64(counts[k]) / float64(collected)
		}
	}
	return collected, err
}

// sequentialSweep returns the function that resamples each of sampled
// once, in index order, from the run's one rng stream.
func sequentialSweep(ctx context.Context, g *factor.Graph, sampled []int32, assign []bool, rng *rand.Rand) func() error {
	return func() error {
		// Cooperative cancellation: check once per sweep.
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, v := range sampled {
			assign[v] = rng.Float64() < sigmoid(logOdds(g, assign, v))
		}
		return nil
	}
}

// logOdds computes log P(v=1 | blanket) - log P(v=0 | blanket): v's
// unit weights plus, over the clause factors touching v, w·[satisfied
// with v=1] - w·[satisfied with v=0]. It is the one conditional kernel:
// both samplers, local sampling and MAP's flip score run on it.
func logOdds(g *factor.Graph, assign []bool, v int32) float64 {
	lo := g.Bias(v)
	for _, f := range g.FactorsOf(v) {
		head, b1, b2, w := g.Clause(f)
		if (b1 != v && !assign[b1]) || (b2 >= 0 && b2 != v && !assign[b2]) {
			continue // the rest of the body is false: satisfied either way
		}
		switch {
		case head != v:
			// v is in the body: setting it completes the body, which
			// violates the clause unless the head holds.
			if !assign[head] {
				lo -= w
			}
		case b1 != v && b2 != v:
			lo += w // v is the head of a true body
		}
		// v as both head and body: satisfied either way.
	}
	return lo
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// sweepObserver tracks per-sweep progress: flip counts (by diffing the
// previous sweep's values of the sampled variables), the caller's
// OnIteration callback, the process-wide chain feed when one is
// installed, and — when OnCheckpoint is set — the convergence timeline
// tracker. A run with none of the three has a nil observer and pays
// nothing per sweep.
type sweepObserver struct {
	sampled []int32
	prev    []bool // prev[k] is sampled[k]'s value after the previous sweep
	start   time.Time
	opts    Options
	feed    *chainFeed
	tracker *tracker
}

func newSweepObserver(sampled []int32, assign []bool, opts Options, feed *chainFeed) *sweepObserver {
	if feed == nil && opts.OnIteration == nil && opts.OnCheckpoint == nil {
		return nil
	}
	o := &sweepObserver{
		sampled: sampled,
		prev:    make([]bool, len(sampled)),
		start:   time.Now(),
		opts:    opts,
		feed:    feed,
	}
	for k, v := range sampled {
		o.prev[k] = assign[v]
	}
	if opts.OnCheckpoint != nil {
		o.tracker = newTracker(sampled, opts.TrackVars)
	}
	return o
}

// observe runs after each sweep (1-based), on the sampling goroutine.
func (o *sweepObserver) observe(sweep int, assign []bool) {
	if o == nil {
		return
	}
	flips := 0
	for k, v := range o.sampled {
		if assign[v] != o.prev[k] {
			flips++
			o.prev[k] = assign[v]
		}
	}
	elapsed := time.Since(o.start)
	sps := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		sps = float64(sweep*len(o.sampled)) / secs
	}
	if o.feed != nil {
		o.feed.sweeps.Inc()
		o.feed.flips.Add(int64(flips))
		o.feed.sps.Set(sps)
		obs.Gibbs.ObserveSweep(sweep)
	}
	burnin := sweep <= o.opts.Burnin
	if o.opts.OnIteration != nil {
		o.opts.OnIteration(SweepStats{
			Sweep:   sweep,
			Burnin:  burnin,
			Vars:    len(o.sampled),
			Flips:   flips,
			Elapsed: elapsed,
		})
	}
	if o.tracker != nil {
		if !burnin {
			o.tracker.record(assign)
		}
		last := sweep == o.opts.Burnin+o.opts.Samples
		if sweep%o.opts.CheckpointEvery == 0 || last {
			cp := Checkpoint{
				Sweep:         sweep,
				Burnin:        burnin,
				Vars:          len(o.sampled),
				Flips:         flips,
				Elapsed:       elapsed,
				SamplesPerSec: sps,
				Tracked:       o.tracker.diagnostics(),
			}
			cp.RHatMax, cp.ESSMin = summarize(cp.Tracked)
			if o.feed != nil {
				obs.Gibbs.ObserveRHat(cp.RHatMax)
			}
			o.opts.OnCheckpoint(cp)
		}
	}
}

// finish runs once when the chain ends, on every exit path (completion
// or cancellation). It zeroes the samples-per-second gauge so a
// finished run does not advertise its last in-flight rate forever.
func (o *sweepObserver) finish() {
	if o == nil || o.feed == nil {
		return
	}
	o.feed.sps.Set(0)
	obs.Gibbs.Done()
}

// Coloring holds a chromatic schedule over the variables a chain sweeps:
// Colors[v] per variable (-1 for one never scheduled), Classes listing
// the variables of each color.
type Coloring struct {
	Colors  []int
	Classes [][]int32
}

// ColorGraph greedily colors the Markov-blanket graph of vars, which
// must be whole components of g: neighbors never share a color.
// Variables are visited in decreasing degree order (Welsh–Powell), which
// keeps the color count low on the hub-heavy graphs grounding produces.
func ColorGraph(g *factor.Graph, vars []int32) Coloring {
	order := slices.Clone(vars)
	sort.SliceStable(order, func(a, b int) bool {
		return len(g.FactorsOf(order[a])) > len(g.FactorsOf(order[b]))
	})

	colors := make([]int, g.NumVars())
	for i := range colors {
		colors[i] = -1
	}
	var classes [][]int32
	// taken[c] == v+1 while coloring v means a neighbor of v holds color
	// c; stamping with the variable saves clearing between variables.
	var taken []int32
	for _, v := range order {
		for _, f := range g.FactorsOf(v) {
			head, b1, b2, _ := g.Clause(f)
			for _, u := range [3]int32{head, b1, b2} {
				if u >= 0 && colors[u] >= 0 {
					taken[colors[u]] = v + 1
				}
			}
		}
		c := 0
		for c < len(taken) && taken[c] == v+1 {
			c++
		}
		if c == len(classes) {
			classes = append(classes, nil)
			taken = append(taken, 0)
		}
		colors[v] = c
		classes[c] = append(classes[c], v)
	}
	return Coloring{Colors: colors, Classes: classes}
}

// splitmix64 advances a per-variable RNG state and returns a uniform
// float64 in [0, 1). It is the cheap deterministic stream the chromatic
// sampler gives each variable, so results do not depend on the worker
// count or scheduling.
func splitmix64(state *uint64) float64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// chromaticSweep colors sampled and returns the function that resamples
// every color class once.
func chromaticSweep(ctx context.Context, g *factor.Graph, sampled []int32, assign []bool, opts Options) func() error {
	coloring := ColorGraph(g, sampled)

	// Sort each color class for memory locality, and seed one splitmix64
	// stream per sampled variable, in sampled order, for determinism
	// independent of the worker count and of any variables never sampled.
	for _, class := range coloring.Classes {
		slices.Sort(class)
	}
	seeder := rand.New(rand.NewSource(opts.Seed))
	states := make([]uint64, g.NumVars())
	for _, v := range sampled {
		states[v] = uint64(seeder.Int63())
	}

	return func() error {
		for _, class := range coloring.Classes {
			// Cooperative cancellation: color classes are the natural
			// synchronization points of the chromatic schedule, so check
			// before each one.
			if err := ctx.Err(); err != nil {
				return err
			}
			// All variables in one class are mutually non-adjacent, so
			// sampling them concurrently equals sampling them in any
			// sequential order. Small classes run inline: goroutine
			// dispatch would cost more than the sampling itself.
			workers := opts.Workers
			if perWorker := 512; len(class) < perWorker*2 {
				workers = 1
			} else if max := len(class) / perWorker; workers > max {
				workers = max
			}
			parallelFor(len(class), workers, func(i int) {
				v := class[i]
				assign[v] = splitmix64(&states[v]) < sigmoid(logOdds(g, assign, v))
			})
		}
		return nil
	}
}

// parallelFor runs f(0..n-1) across at most workers goroutines, inline
// when that is one.
func parallelFor(n, workers int, f func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// ApplyMarginals writes the estimated probabilities into the NULL weight
// cells of a TΠ table, completing the knowledge-expansion pipeline: after
// this call every inferred fact carries its marginal probability.
// Observed facts keep their extraction weights. The graph provides the
// fact-ID → variable mapping (fact IDs may be sparse after quality
// control).
func ApplyMarginals(g *factor.Graph, facts *engine.Table, probs []float64) error {
	if g.NumVars() != len(probs) {
		return fmt.Errorf("infer: %d marginals for %d variables", len(probs), g.NumVars())
	}
	ws := facts.Float64Col(kb.TPiW)
	ids := facts.Int32Col(kb.TPiI)
	for r := 0; r < facts.NumRows(); r++ {
		if !engine.IsNullFloat64(ws[r]) {
			continue
		}
		v, ok := g.VarOf(ids[r])
		if !ok {
			return fmt.Errorf("infer: fact %d has no graph variable", ids[r])
		}
		ws[r] = probs[v]
	}
	return nil
}
