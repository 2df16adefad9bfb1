package infer

import (
	"math"
	"math/rand"
	"testing"
)

func TestMAPMatchesExactOnSmallGraphs(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(t, rng, 3+rng.Intn(6))
		exact, err := ExactMAP(g)
		if err != nil {
			t.Fatal(err)
		}
		got := MAP(g, MAPOptions{Seed: seed, Restarts: 5})
		// MaxWalkSAT must reach the optimum score on these tiny graphs
		// (the argmax itself may be non-unique).
		if math.Abs(got.LogScore-exact.LogScore) > 1e-9 {
			t.Fatalf("seed %d: MAP score %v, exact %v", seed, got.LogScore, exact.LogScore)
		}
		// The reported score matches the assignment.
		if math.Abs(g.LogScore(got.Assignment)-got.LogScore) > 1e-9 {
			t.Fatalf("seed %d: reported score inconsistent with assignment", seed)
		}
	}
}

func TestMAPHornStructure(t *testing.T) {
	// Strong evidence for the body, positive implication: the MAP world
	// sets the head true.
	g := graphFromFactors(t, 3, [][4]any{
		{1, null, null, 4.0},
		{2, null, null, 4.0},
		{0, 1, 2, 2.0},
	})
	res := MAP(g, MAPOptions{Seed: 1})
	if !res.Assignment[1] || !res.Assignment[2] {
		t.Fatal("evidence variables should be true in the MAP world")
	}
	if !res.Assignment[0] {
		t.Fatal("implied head should be true in the MAP world")
	}
}

func TestMAPNegativeEvidence(t *testing.T) {
	// Strong negative singleton: the MAP world sets the variable false.
	g := graphFromFactors(t, 1, [][4]any{{0, null, null, -5.0}})
	res := MAP(g, MAPOptions{Seed: 2})
	if res.Assignment[0] {
		t.Fatal("negatively weighted fact should be false in the MAP world")
	}
}

func TestMAPEmptyGraph(t *testing.T) {
	g := graphFromFactors(t, 0, nil)
	res := MAP(g, MAPOptions{})
	if len(res.Assignment) != 0 {
		t.Fatal("empty graph should yield empty assignment")
	}
	if _, err := ExactMAP(g); err != nil {
		t.Fatal(err)
	}
}

func TestExactMAPBounds(t *testing.T) {
	g := graphFromFactors(t, MaxExactVars+1, nil)
	if _, err := ExactMAP(g); err == nil {
		t.Fatal("oversized graph accepted")
	}
	if msg := errTooLarge(30).Error(); msg == "" {
		t.Fatal("error message empty")
	}
}

func TestMAPDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(t, rng, 8)
	a := MAP(g, MAPOptions{Seed: 9})
	b := MAP(g, MAPOptions{Seed: 9})
	if a.LogScore != b.LogScore {
		t.Fatal("same seed, different MAP scores")
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("same seed, different MAP assignments")
		}
	}
}

func TestDiagnosticsConvergedChain(t *testing.T) {
	// A well-mixing single-variable chain converges: R̂ ≈ 1.
	g := graphFromFactors(t, 2, [][4]any{
		{0, null, null, 0.8},
		{1, 0, null, 1.0},
	})
	d := MarginalsWithDiagnostics(g, Options{Burnin: 200, Samples: 2000, Seed: 5}, 4)
	if d.Chains != 4 {
		t.Fatalf("chains = %d", d.Chains)
	}
	if !d.Converged(1.1) {
		t.Fatalf("well-mixing chain reported unconverged: R̂ = %v", d.RHat)
	}
	// Pooled marginals agree with the exact answer.
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	for v := range exact {
		if math.Abs(d.Marginals[v]-exact[v]) > 0.05 {
			t.Fatalf("pooled marginal %d: %v vs exact %v", v, d.Marginals[v], exact[v])
		}
	}
}

func TestDiagnosticsDetectsTooFewSamples(t *testing.T) {
	// With a near-deterministic bimodal structure and almost no samples,
	// chains disagree and R̂ should be clearly above 1.
	g := graphFromFactors(t, 6, [][4]any{
		{0, 1, null, 6.0}, {1, 0, null, 6.0},
		{2, 3, null, 6.0}, {3, 2, null, 6.0},
		{4, 5, null, 6.0}, {5, 4, null, 6.0},
	})
	short := MarginalsWithDiagnostics(g, Options{Burnin: 1, Samples: 4, Seed: 6}, 4)
	long := MarginalsWithDiagnostics(g, Options{Burnin: 200, Samples: 4000, Seed: 6}, 4)
	if short.MaxRHat <= long.MaxRHat {
		t.Fatalf("short run R̂ (%v) should exceed long run R̂ (%v)", short.MaxRHat, long.MaxRHat)
	}
}

func TestDiagnosticsMinimumChains(t *testing.T) {
	g := graphFromFactors(t, 1, [][4]any{{0, null, null, 1.0}})
	d := MarginalsWithDiagnostics(g, Options{Burnin: 10, Samples: 50, Seed: 7}, 0)
	if d.Chains < 2 {
		t.Fatal("diagnostics need at least two chains")
	}
	empty := MarginalsWithDiagnostics(graphFromFactors(t, 0, nil), Options{}, 3)
	if len(empty.Marginals) != 0 {
		t.Fatal("empty graph diagnostics should be empty")
	}
}

// TestDiagnosticsUnsampledVariables: a variable no clause touches has
// the same closed-form marginal in every chain, so there is nothing to
// converge — R̂ is 1 by definition and MaxRHat ignores it.
func TestDiagnosticsUnsampledVariables(t *testing.T) {
	g := graphFromFactors(t, 4, [][4]any{
		{0, 1, null, 6.0}, {1, 0, null, 6.0},
		{2, null, null, 0.7}, // evidence only
		// 3: no factor
	})
	d := MarginalsWithDiagnostics(g, Options{Burnin: 1, Samples: 4, Seed: 6}, 4)
	if d.RHat[2] != 1 || d.RHat[3] != 1 {
		t.Fatalf("unsampled R̂ = %v, %v, want exactly 1", d.RHat[2], d.RHat[3])
	}
	if d.Marginals[2] != sigmoid(0.7) || d.Marginals[3] != 0.5 {
		t.Fatalf("unsampled marginals = %v, %v, want σ(0.7) and 0.5", d.Marginals[2], d.Marginals[3])
	}
	if want := math.Max(d.RHat[0], d.RHat[1]); d.MaxRHat != want {
		t.Fatalf("MaxRHat = %v, want the sampled variables' worst %v (R̂ = %v)", d.MaxRHat, want, d.RHat)
	}
}
