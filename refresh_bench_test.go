package probkb

import (
	"context"
	"testing"
	"time"
)

// BenchmarkRefreshMarginals is ingest-serve's refresh in the library: the
// unconstrained scale-0.25 corpus expanded with inference (the served
// baseline's configuration), four 64-fact ExtendWithDeferred batches,
// then one RefreshMarginals per op. Refresh leaves its receiver frozen,
// so every op refreshes the same deferred generation. The per-phase
// metrics split an op as the expansion's stats do: the closure's empty
// iteration (load+atoms), the factor phase, and inference (factor-graph
// build plus marginals).
func BenchmarkRefreshMarginals(b *testing.B) {
	k, _, err := Synthesize(0.25, 42)
	if err != nil {
		b.Fatal(err)
	}
	e, err := k.Expand(Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 20, GibbsSamples: 100, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	batches := streamBatches(e, 4, 64)
	if len(batches) != 4 {
		b.Fatalf("derived %d batches, want 4", len(batches))
	}
	for _, batch := range batches {
		if e, err = e.ExtendWithDeferred(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
	}
	var ground, factors, infer time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := e.RefreshMarginals(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		st := next.Stats()
		ground += st.LoadTime + st.GroundingTime
		factors += st.FactorTime
		infer += st.InferenceTime
	}
	n := float64(b.N) * float64(time.Millisecond)
	b.ReportMetric(float64(ground)/n, "ground-ms/op")
	b.ReportMetric(float64(factors)/n, "factors-ms/op")
	b.ReportMetric(float64(infer)/n, "infer-ms/op")
}
