package ground

import (
	"fmt"
	"math/rand"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
)

// Kernel benchmarks for the fact index (ROADMAP item 1b), beside the
// engine's own in internal/engine/kernel_bench_test.go: merge is what
// every grounding iteration does with its candidate facts, rebuild what it
// does after every constraint pass that deleted something.

// syntheticCandidates builds n (R, x, C1, y, C2) rows over n/4 entities;
// seed picks the rows, so two seeds overlap in almost nothing.
func syntheticCandidates(n int, seed int64) *engine.Table {
	rng := rand.New(rand.NewSource(seed))
	t := engine.NewTable("cand", engine.NewSchema(engine.C("R", engine.Int32), engine.C("x", engine.Int32),
		engine.C("C1", engine.Int32), engine.C("y", engine.Int32), engine.C("C2", engine.Int32)))
	ents := int32(n / 4)
	for i := 0; i < n; i++ {
		x, y := rng.Int31n(ents), rng.Int31n(ents)
		t.AppendRow(rng.Int31n(200), x, x%12, y, y%12)
	}
	return t
}

func benchFactIndex(b *testing.B, f func(b *testing.B, cand *engine.Table, ix *factIndex)) {
	for _, n := range []int{100_000, 300_000} {
		cand := syntheticCandidates(n, 1)
		b.Run(fmt.Sprintf("%dK", n/1000), func(b *testing.B) {
			b.ReportAllocs()
			ix := newFactIndex(engine.NewTable("T", kb.FactsSchema()))
			ix.merge(cand)
			b.ResetTimer()
			f(b, cand, ix)
		})
	}
}

// BenchmarkFactIndexMerge merges into an n-fact TΠ a round of 2n
// candidates: n it already holds (all rejected) and n it does not (all
// appended, except the few duplicates among them). Building the n-fact
// baseline is inside the timed loop: it is the same merge.
func BenchmarkFactIndexMerge(b *testing.B) {
	benchFactIndex(b, func(b *testing.B, cand *engine.Table, _ *factIndex) {
		fresh := syntheticCandidates(cand.NumRows(), 2)
		for i := 0; i < b.N; i++ {
			ix := newFactIndex(engine.NewTable("T", kb.FactsSchema()))
			base := ix.merge(cand)
			if dup := ix.merge(cand); dup != 0 {
				b.Fatalf("re-merge added %d facts", dup)
			}
			if added := ix.merge(fresh); added < base/2 {
				b.Fatalf("fresh merge added %d of %d", added, fresh.NumRows())
			}
		}
	})
}

func BenchmarkFactIndexRebuild(b *testing.B) {
	benchFactIndex(b, func(b *testing.B, _ *engine.Table, ix *factIndex) {
		for i := 0; i < b.N; i++ {
			ix.rebuild()
		}
	})
}
