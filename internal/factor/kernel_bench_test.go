package factor

import (
	"testing"

	"probkb/internal/ground"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// constrainedResult grounds the synthetic corpus at the given scale under
// constraints (naive order, to the fixpoint).
func constrainedResult(b *testing.B, scale float64) *ground.Result {
	b.Helper()
	c, err := synth.ReVerbSherlock(scale, 42)
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
	return res
}

// BenchmarkFromResult builds the factor graph of the scale-0.25 corpus'
// constrained grounding (the graph internal/infer's BenchmarkGibbsSweep
// samples): columns, one CSR adjacency and the component labels, so
// allocs/op is a small constant however many factors there are.
func BenchmarkFromResult(b *testing.B) {
	res := constrainedResult(b, 0.25)
	var err error
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

// BenchmarkComponents times what FromTables pays for the component
// column on the scale-0.5 graph (the one expand-infer infers over): the
// union-find over the clause columns and the in-place labelling, one
// allocation of 4 bytes per variable. "group" is the ephemeral grouping
// every inference pass derives from the labels.
func BenchmarkComponents(b *testing.B) {
	g, err := FromResult(constrainedResult(b, 0.5))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("label", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.labelComponents()
		}
		b.ReportMetric(float64(g.NumComponents()), "components")
		b.ReportMetric(float64(len(g.Sampled())), "sampled")
	})
	b.Run("group", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Components()
		}
	})
}
