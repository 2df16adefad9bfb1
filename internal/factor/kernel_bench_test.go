package factor

import (
	"testing"

	"probkb/internal/ground"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// BenchmarkFromResult builds the factor graph of the scale-0.25 corpus'
// constrained grounding (the graph internal/infer's BenchmarkGibbsSweep
// samples): columns and one CSR adjacency, so allocs/op is a small
// constant however many factors there are.
func BenchmarkFromResult(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	var g *Graph
	for i := 0; i < b.N; i++ {
		if g, err = FromResult(res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NumFactors()), "factors")
}
