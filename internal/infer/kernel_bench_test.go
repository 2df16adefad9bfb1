package infer

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// Kernel benchmarks for inference (ROADMAP item 1's kernel tier) over the
// ground factor graph of a synthetic corpus grounded under constraints
// (pre-clean, then Query 3 after each iteration to the fixpoint; naive
// order, which reaches the facts and factors KB.Expand's semi-naive order
// does): one Gibbs sweep of each sampler at scale 0.25, the whole
// enumeration pass at scale 0.5 (what expand-infer runs), and the
// enumeration bound's cost argument — one component of exactMaxVars
// variables, and enumeration against the default 600-sweep chain at 8, 12
// and 16. internal/factor's BenchmarkFromResult and BenchmarkComponents
// time building and labelling those graphs.

func constrainedGraph(b *testing.B, scale float64) *factor.Graph {
	return corpusGraph(b, scale, true)
}

// corpusGraph grounds the synthetic corpus (seed 42) at the given scale,
// with or without semantic constraints, and builds its factor graph.
func corpusGraph(t testing.TB, scale float64, constrained bool) *factor.Graph {
	t.Helper()
	c, err := synth.ReVerbSherlock(scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	work := c.KB.Fork()
	var opts ground.Options
	if constrained {
		quality.PreClean(work)
		opts = ground.Options{MaxIterations: 15, ConstraintHook: quality.NewChecker(work).Hook()}
	}
	res, err := ground.Ground(work, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := factor.FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// BenchmarkGibbsSweep times one sweep of each sampler, schedule setup
// (the coloring) excluded: ns/op is a whole sweep, ns/update one
// sampled-variable resample. A sweep allocates nothing.
func BenchmarkGibbsSweep(b *testing.B) {
	g := constrainedGraph(b, 0.25)
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "chromatic"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			assign := make([]bool, g.NumVars())
			for _, v := range g.Sampled() {
				assign[v] = rng.Intn(2) == 0
			}
			sweep := sequentialSweep(context.Background(), g, g.Sampled(), assign, rng)
			if parallel {
				sweep = chromaticSweep(context.Background(), g, g.Sampled(), assign, Options{Seed: 1}.withDefaults())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sweep(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(g.Sampled())), "ns/update")
			b.ReportMetric(float64(len(g.Sampled())), "sampled")
		})
	}
}

// BenchmarkExactComponents times the whole exact pass — closed forms,
// grouping, every component enumerated — over the scale-0.5 graph, whose
// largest component has 12 variables. allocs/op is a constant plus one
// goroutine per worker, however many components there are.
func BenchmarkExactComponents(b *testing.B) {
	g := constrainedGraph(b, 0.5)
	for _, workers := range []int{1, 2} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, swept, err := exactMarginals(context.Background(), g, exactMaxVars, workers)
				if err != nil || len(swept) > 0 {
					b.Fatalf("swept %d variables, err %v", len(swept), err)
				}
			}
			plan := PlanOf(g)
			b.ReportMetric(float64(plan.Components), "components")
			b.ReportMetric(float64(plan.MaxComponent), "max_component")
		})
	}
}

// benchRing is one component of n variables in a cycle, each with a unit
// clause and in four clauses (head of two, body of two) — denser than the
// corpus graphs, whose sampled variables sit in 1.5 clauses on average.
func benchRing(b *testing.B, n int) *factor.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	var rows [][4]any
	for v := 0; v < n; v++ {
		rows = append(rows,
			[4]any{v, null, null, rng.Float64()*2 - 1},
			[4]any{v, (v + 1) % n, null, rng.Float64() * 2},
			[4]any{(v + 1) % n, v, null, rng.Float64() * 2})
	}
	return graphFromFactors(b, n, rows)
}

// BenchmarkExact16 enumerates one component of exactMaxVars variables:
// the most a single component can cost the exact pass. ns/state is one
// Gray-code step (a logOdds call, an exp, the marginal accumulation).
func BenchmarkExact16(b *testing.B) {
	g := benchRing(b, exactMaxVars)
	assign, probs := make([]bool, g.NumVars()), make([]float64, g.NumVars())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enumerate(g, g.Sampled(), assign, probs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N<<exactMaxVars), "ns/state")
}

// BenchmarkExactVsChain is the bound's cost argument as numbers:
// enumerating one component of n variables against the default 100 + 500
// sweeps of the sequential chain over it (no observer, as on the query
// path).
func BenchmarkExactVsChain(b *testing.B) {
	for _, n := range []int{8, 12, 16} {
		g := benchRing(b, n)
		b.Run("n="+strconv.Itoa(n)+"/enumerate", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, swept, _ := exactMarginals(context.Background(), g, exactMaxVars, 1); len(swept) > 0 {
					b.Fatal("component left to the chain")
				}
			}
		})
		b.Run("n="+strconv.Itoa(n)+"/600sweeps", func(b *testing.B) {
			probs := make([]float64, g.NumVars())
			for i := 0; i < b.N; i++ {
				if collected, _ := sample(context.Background(), g, g.Sampled(), probs, Options{Seed: 1}.withDefaults(), nil); collected != 500 {
					b.Fatalf("collected %d sweeps", collected)
				}
			}
		})
	}
}

// BenchmarkUnconstrainedRefresh is ingest-serve's inference step: the
// scale-0.25 corpus grounded without constraints (components of 16, 17,
// 18, 25 and 28 variables among 7,632) at the benchmark's 20 + 100 sweeps
// per refresh — the whole pass as MarginalsContext runs it against the
// chain over every sampled variable that it replaced. The 16-variable
// component is the one the bound makes dearer than its share of the
// chain.
func BenchmarkUnconstrainedRefresh(b *testing.B) {
	g := corpusGraph(b, 0.25, false)
	opts := Options{Burnin: 20, Samples: 100, Seed: 1}
	b.Run("by-component", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Marginals(g, opts)
		}
		b.ReportMetric(float64(PlanOf(g).SampledVars), "swept")
	})
	b.Run("chain-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chainMarginals(g, opts)
		}
		b.ReportMetric(float64(len(g.Sampled())), "swept")
	})
}

// BenchmarkGiantComponent is the measurement ColorGraph's fate hangs on:
// whole sweeps of each sampler over a graph that needs one — a 128×128
// grid component (16,384 variables, two color classes of 8,192) beside
// 2,000 small components the exact pass takes.
func BenchmarkGiantComponent(b *testing.B) {
	g, giant := giantGraph(b, 128, 2000)
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "chromatic"
		}
		b.Run(name, func(b *testing.B) {
			opts := Options{Burnin: 10, Samples: 90, Seed: 1, Parallel: parallel}
			for i := 0; i < b.N; i++ {
				if _, collected, _ := MarginalsContext(context.Background(), g, opts); collected != 90 {
					b.Fatalf("collected %d", collected)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*100*giant), "ns/update")
		})
	}
}
