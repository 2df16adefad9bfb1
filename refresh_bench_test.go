package probkb

import (
	"context"
	"fmt"
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

// BenchmarkExtendWithDeferred is ingest-serve's absorb in the library:
// the unconstrained corpus at scales 0.05 and 0.25 expanded with
// inference, one 64-fact ExtendWithDeferred batch absorbed outside the
// timer, then one ExtendWithDeferred of the next 64 facts per op.
// Absorbing leaves its receiver frozen, so every op extends the same
// generation — an extend's, which carries the fact index its round
// published, as every generation after a stream's first batch does. What
// an op still pays per row of TΠ is the clone of the table.
func BenchmarkExtendWithDeferred(b *testing.B) {
	for _, scale := range []float64{0.05, 0.25} {
		b.Run(fmt.Sprintf("scale=%v", scale), func(b *testing.B) {
			k, _, err := Synthesize(scale, 42)
			if err != nil {
				b.Fatal(err)
			}
			e, err := k.Expand(Config{Engine: SingleNode, RunInference: true, GibbsBurnin: 20, GibbsSamples: 100, Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			batches := streamBatches(e, 2, 64)
			if len(batches) != 2 {
				b.Fatalf("derived %d batches, want 2", len(batches))
			}
			if e, err = e.ExtendWithDeferred(context.Background(), batches[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ExtendWithDeferred(context.Background(), batches[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
