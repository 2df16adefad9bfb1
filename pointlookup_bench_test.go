// Point-lookup microbenchmarks: Explain and Find are the hot paths a
// lookup service hammers, and both used to rescan the fact table per
// call (Explain even per rendered node). These benchmarks exist to keep
// them honest: Explain is O(tree + one indexing pass) and Find resolves
// names to IDs once instead of rendering every row.
package probkb_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"probkb"
)

var (
	lookupOnce sync.Once
	lookupExp  *probkb.Expansion
	lookupFact probkb.Fact
)

// lookupExpansion expands (once) a synthetic corpus big enough that a
// per-row rescan is visibly quadratic.
func lookupExpansion(b *testing.B) (*probkb.Expansion, probkb.Fact) {
	b.Helper()
	lookupOnce.Do(func() {
		k, _, err := probkb.Synthesize(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode, RunInference: false})
		if err != nil {
			b.Fatal(err)
		}
		inferred := exp.InferredFacts()
		if len(inferred) == 0 {
			b.Fatal("corpus derived nothing")
		}
		lookupExp, lookupFact = exp, inferred[len(inferred)/2]
	})
	return lookupExp, lookupFact
}

func BenchmarkExplain(b *testing.B) {
	exp, f := lookupExpansion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Explain(f.Rel, f.X, f.Y, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFind(b *testing.B) {
	exp, f := lookupExpansion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := exp.Find(f.Rel, f.X, f.Y); len(got) == 0 {
			b.Fatal("fact not found")
		}
	}
}

func BenchmarkFindWildcardRel(b *testing.B) {
	exp, f := lookupExpansion(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := exp.Find(f.Rel, "", ""); len(got) == 0 {
			b.Fatal("relation not found")
		}
	}
}

// BenchmarkQueryLocalCold is the benchmark's point-serve-cold operation
// in the library: a cache-bypassing QueryLocal over the constrained
// scale 0.25 corpus, cycling through 256 of its inferred atoms, so each
// iteration pays local grounding, the neighborhood graph and its
// enumeration, and every metric and span the path records.
func BenchmarkQueryLocalCold(b *testing.B) {
	k, _, err := probkb.Synthesize(0.25, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	exp, err := k.Expand(probkb.Config{Engine: probkb.SingleNode, ApplyConstraints: true, MaxIterations: 15, Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	inferred := exp.InferredFacts()
	if len(inferred) == 0 {
		b.Fatal("corpus derived nothing")
	}
	qs := make([]probkb.PointQuery, 256)
	for i := range qs {
		f := inferred[i*len(inferred)/len(qs)]
		qs[i] = probkb.PointQuery{Rel: f.Rel, X: f.X, Y: f.Y, NoCache: true}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.QueryLocal(context.Background(), qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryLocalCached(b *testing.B) {
	exp, f := lookupExpansion(b)
	q := probkb.PointQuery{Rel: f.Rel, X: f.X, Y: f.Y, Burnin: 20, Samples: 100}
	if _, err := exp.QueryLocal(context.Background(), q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.QueryLocal(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointSelect is the benchmark's point-serve-sql operation in
// the library: `SELECT ... FROM T WHERE T.x = <entity>` over the scale
// 0.25 corpus. "hit" is what a served generation pays per request — the
// relational image exists, so parse + plan + an Index Scan of T.x;
// "build" is the first request after a mutation, which materializes T
// again, re-ANALYZEs it and builds its index on T.x (what every request
// paid before the image, plus the index: ~+0.65 MB per build).
func BenchmarkPointSelect(b *testing.B) {
	k, _, err := probkb.Synthesize(0.25, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	entities := k.Stats().Entities
	query := func(i int) {
		q := fmt.Sprintf("SELECT T.R, T.y, T.w FROM T WHERE T.x = %d", i*7919%entities)
		if _, err := k.QuerySQL(q); err != nil {
			b.Fatal(err)
		}
	}
	bump := func() { k.AddFact("bench_rel", "bench_x", "BenchClass", "bench_y", "BenchClass", 0.5) }
	bump() // the first call interns; every later one only passes the write barrier
	b.Run("hit", func(b *testing.B) {
		query(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(i)
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bump()
			query(i)
		}
	})
}
