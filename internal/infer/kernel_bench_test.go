package infer

import (
	"context"
	"math/rand"
	"testing"

	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// Kernel benchmark for the sampler (ROADMAP item 2's kernel tier): one
// Gibbs sweep over the ground factor graph of the scale-0.25 corpus,
// grounded under constraints (pre-clean, then Query 3 after each
// iteration to the fixpoint; naive order, which reaches the facts and
// factors KB.Expand's semi-naive order does). internal/factor's
// BenchmarkFromResult times building that graph.

func constrainedGraph(b *testing.B) *factor.Graph {
	b.Helper()
	c, err := synth.ReVerbSherlock(0.25, 42)
	if err != nil {
		b.Fatal(err)
	}
	work := c.KB.Fork()
	quality.PreClean(work)
	res, err := ground.Ground(work, ground.Options{
		MaxIterations:  15,
		ConstraintHook: quality.NewChecker(work).Hook(),
	})
	if err != nil {
		b.Fatal(err)
	}
	g, err := factor.FromResult(res)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkGibbsSweep times one sweep of each sampler, schedule setup
// (the coloring) excluded: ns/op is a whole sweep, ns/update one
// sampled-variable resample. A sweep allocates nothing.
func BenchmarkGibbsSweep(b *testing.B) {
	g := constrainedGraph(b)
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
			sweep := sequentialSweep(context.Background(), g, assign, rng)
			if parallel {
				sweep = chromaticSweep(context.Background(), g, assign, Options{Seed: 1}.withDefaults())
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
