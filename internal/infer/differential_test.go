package infer

import (
	"math"
	"math/rand"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/kb"
)

// oracleTol is the allowed |gibbs - exact| per marginal. With 8000
// collected sweeps the Monte Carlo standard error is below 0.006, so
// 0.05 is ~9 sigma — a failure means a kernel bug, not noise.
const oracleTol = 0.05

// TestGibbsDifferentialOracle is the inference leg of the differential
// harness: random factor graphs of up to 12 variables, with the exact
// enumeration oracle as ground truth. Each graph runs through the
// sequential sweep and the chromatic sampler at two worker counts; every
// marginal must sit within oracleTol of the oracle, and the two
// chromatic runs must agree bit-for-bit (the per-variable splitmix64
// streams make the schedule worker-count independent).
func TestGibbsDifferentialOracle(t *testing.T) {
	for seed := int64(100); seed < 108; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(t, rng, 3+rng.Intn(10))
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Burnin: 500, Samples: 8000, Seed: seed}

		seq := chainMarginals(g, opts)

		chromaticOpts := opts
		chromaticOpts.Parallel = true
		chromaticOpts.Workers = 1
		chrom1 := chainMarginals(g, chromaticOpts)
		chromaticOpts.Workers = 4
		chrom4 := chainMarginals(g, chromaticOpts)

		for v := range exact {
			if d := math.Abs(seq[v] - exact[v]); d > oracleTol {
				t.Errorf("seed %d var %d: sequential %v vs exact %v (|Δ|=%v)", seed, v, seq[v], exact[v], d)
			}
			if d := math.Abs(chrom1[v] - exact[v]); d > oracleTol {
				t.Errorf("seed %d var %d: chromatic %v vs exact %v (|Δ|=%v)", seed, v, chrom1[v], exact[v], d)
			}
			if chrom1[v] != chrom4[v] {
				t.Errorf("seed %d var %d: chromatic diverges across worker counts: %v (w=1) vs %v (w=4)",
					seed, v, chrom1[v], chrom4[v])
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// bigSparseGraph builds a graph large enough that the chromatic sampler
// actually fans color classes out across workers (classes of ≥1024
// variables run parallel; smaller ones are sampled inline).
func bigSparseGraph(t *testing.T, n int) *factor.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	facts := engine.NewTable("T", kb.FactsSchema())
	for i := 0; i < n; i++ {
		facts.AppendRow(i, 0, i, 0, i, 0, engine.NullFloat64())
	}
	factors := engine.NewTable("TPhi", ground.FactorSchema())
	for v := 0; v < n; v++ {
		factors.AppendRow(v, null, null, rng.Float64()*3-1.5)
	}
	// A sparse layer of implication factors so the coloring is nontrivial
	// but the big color classes stay big.
	for i := 0; i < n/8; i++ {
		head := rng.Intn(n)
		body := rng.Intn(n)
		if body == head {
			body = (body + 1) % n
		}
		factors.AppendRow(head, body, null, rng.Float64())
	}
	g, err := factor.FromTables(facts, factors)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestChromaticDeterministicAcrossWorkers pins the chromatic sampler's
// central guarantee at a size where the worker pool really engages:
// identical marginals — bitwise — for every worker count.
func TestChromaticDeterministicAcrossWorkers(t *testing.T) {
	g := bigSparseGraph(t, 4096)
	opts := Options{Burnin: 5, Samples: 20, Seed: 42, Parallel: true}

	var ref []float64
	for _, w := range []int{1, 2, 8} {
		o := opts
		o.Workers = w
		probs := chainMarginals(g, o)
		if ref == nil {
			ref = probs
			continue
		}
		for v := range ref {
			if math.Float64bits(probs[v]) != math.Float64bits(ref[v]) {
				t.Fatalf("workers=%d var %d: %v differs from workers=1 result %v", w, v, probs[v], ref[v])
			}
		}
	}
}
