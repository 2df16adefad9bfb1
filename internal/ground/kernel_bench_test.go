package ground

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
)

// Kernel benchmarks for the fact index (ROADMAP item 1b), beside the
// engine's own in internal/engine/kernel_bench_test.go: merge is what
// every grounding iteration does with its candidate facts, rebuild what it
// does after every constraint pass that deleted something. DeltaLegs is
// one semi-naive iteration's two-atom legs, FactorsDelta one factor phase
// maintained from the Δ beside Query 2 over all of TΠ.

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

// deltaLegsFixture is the n-candidate synthetic TΠ and a P4 partition of
// 2,000 rules drawn from chains its facts form — a q(x, z) fact and an
// r(z, y) one sharing z — so a delta row meets a rule about as often as
// it does in a real corpus.
func deltaLegsFixture(b *testing.B, n int) (*BatchGrounder, *engine.Table) {
	ix := newFactIndex(engine.NewTable("T", kb.FactsSchema()))
	ix.merge(syntheticCandidates(n, 1))
	tpi := ix.tpi
	rels, xs, ys := tpi.Int32Col(kb.TPiR), tpi.Int32Col(kb.TPiX), tpi.Int32Col(kb.TPiY)
	c1s, c2s := tpi.Int32Col(kb.TPiC1), tpi.Int32Col(kb.TPiC2)
	bySubject := make(map[int32][]int, len(xs))
	for r, x := range xs {
		bySubject[x] = append(bySubject[x], r)
	}
	rng := rand.New(rand.NewSource(3))
	var clauses []mln.Clause
	for len(clauses) < 2000 {
		q := rng.Intn(len(xs))
		next := bySubject[ys[q]]
		if len(next) == 0 {
			continue
		}
		r := next[rng.Intn(len(next))]
		clauses = append(clauses, mln.Clause{
			Head:   mln.Atom{Rel: rng.Int31n(200), Arg1: mln.X, Arg2: mln.Y},
			Body:   []mln.Atom{{Rel: rels[q], Arg1: mln.X, Arg2: mln.Z}, {Rel: rels[r], Arg1: mln.Z, Arg2: mln.Y}},
			Weight: 1,
			Class:  [3]int32{mln.X: c1s[q], mln.Y: c2s[r], mln.Z: c2s[q]},
		})
	}
	parts, err := mln.Build(clauses)
	if err != nil {
		b.Fatal(err)
	}
	return &BatchGrounder{parts: parts}, tpi
}

// BenchmarkDeltaLegs runs one semi-naive iteration of a two-atom
// partition — its Δ⋈T and T⋈Δ legs, deduplicated as the single-node
// backend runs them — with Δ the last 1, 64 or 4,096 rows of a 100K- or
// 300K-row TΠ. legs=index reads TΠ through the run's entity index, built
// once outside the loop as groundFrom builds it once per run; legs=hash
// is the hash-join form the MPP backend lowers, which hashes or scans all
// of TΠ. The index legs' time follows Δ; the hash legs' follows TΠ.
func BenchmarkDeltaLegs(b *testing.B) {
	for _, n := range []int{100_000, 300_000} {
		g, tpi := deltaLegsFixture(b, n)
		tix := newTPiIndex(tpi)
		ids := tpi.Int32Col(kb.TPiI)
		for _, d := range []int{1, 64, 4096} {
			delta := deltaRows(tpi, ids[len(ids)-d])
			for _, legs := range []string{"index", "hash"} {
				ix := tix
				if legs == "hash" {
					ix = nil
				}
				b.Run(fmt.Sprintf("%dK/delta=%d/legs=%s", n/1000, d, legs), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for _, plan := range g.atomsPlans(mln.P4, tpi, delta, ix) {
							if _, _, err := (singleNode{}).run("atoms", plan, false); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			}
		}
	}
}

// BenchmarkFactorsDelta is one factor phase of deltaLegsFixture's
// partition over a 100K- or 300K-row TΠ. phase=full is Query 2 over all
// of TΠ, what a run with no prior TΦ states. delta=64 and delta=4096
// maintain the TΦ computed before the last 64 or 4,096 rows arrived
// (deltafactors.go), reading TΠ through its entity index, built outside
// the loop as groundFrom keeps it up across a run. The maintained phase's
// joins follow Δ; what is left of TΠ's size is the merge's copy of the
// prior rows.
func BenchmarkFactorsDelta(b *testing.B) {
	ctx := context.Background()
	active := []int{mln.P4}
	for _, n := range []int{100_000, 300_000} {
		g, tpi := deltaLegsFixture(b, n)
		ix, tix := newFactIndex(tpi), newTPiIndex(tpi)
		phase := func(b *testing.B, prior *factorState) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := g.factorPhase(ctx, singleNode{}, active, tpi, ix, tix, &Result{tphi: prior}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(fmt.Sprintf("%dK/phase=full", n/1000), func(b *testing.B) { phase(b, nil) })
		for _, d := range []int{64, 4096} {
			rows := make([]int32, tpi.NumRows()-d)
			for r := range rows {
				rows[r] = int32(r)
			}
			old := engine.NewTable("T", kb.FactsSchema())
			old.AppendRowsFrom(tpi, rows)
			prior := &Result{}
			if err := g.factorPhase(ctx, singleNode{}, active, old, newFactIndex(old), nil, prior); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%dK/delta=%d", n/1000, d), func(b *testing.B) { phase(b, prior.tphi) })
		}
	}
}
