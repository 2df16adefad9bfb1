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
	// A well-mixing chain (weak couplings, a component too large to
	// enumerate) converges: R̂ ≈ 1.
	g := ringGraph(t, exactMaxVars+2, 0.4, [4]any{0, null, null, 0.8})
	d := MarginalsWithDiagnostics(g, Options{Burnin: 200, Samples: 2000, Seed: 5}, 4)
	if d.Chains != 4 {
		t.Fatalf("chains = %d", d.Chains)
	}
	if !d.Converged(1.1) || d.MaxRHat < 0.9 {
		t.Fatalf("well-mixing chain reported unconverged or unsampled: max %v, R̂ = %v", d.MaxRHat, d.RHat)
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
	g := ringGraph(t, exactMaxVars+2, 2.0)
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

// TestDiagnosticsUnsampledVariables: a variable outside the components
// the chain sweeps has the same exact marginal in every run, so there is
// nothing to converge — R̂ is 1 by definition and MaxRHat ignores it.
// With no such component at all, no chain runs and the graph reports
// converged.
func TestDiagnosticsUnsampledVariables(t *testing.T) {
	const n = exactMaxVars + 2
	small := [][4]any{
		{n, null, null, 0.7}, // evidence only
		// n+1: no factor
		{n + 2, n + 3, null, 6.0}, {n + 3, n + 2, null, 6.0}, // enumerated
	}
	g := ringGraph(t, n, 6.0, small...)
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	d := MarginalsWithDiagnostics(g, Options{Burnin: 1, Samples: 4, Seed: 6}, 4)
	for v := n; v < n+4; v++ {
		if d.RHat[v] != 1 || d.Marginals[v] != exact[v] {
			t.Fatalf("unsampled var %d: R̂ %v marginal %v, want exactly 1 and %v", v, d.RHat[v], d.Marginals[v], exact[v])
		}
	}
	if d.Marginals[n] != sigmoid(0.7) || d.Marginals[n+1] != 0.5 {
		t.Fatalf("closed-form marginals = %v, %v, want σ(0.7) and 0.5", d.Marginals[n], d.Marginals[n+1])
	}
	want := 0.0
	for _, r := range d.RHat[:n] {
		want = math.Max(want, r)
	}
	if d.MaxRHat != want || want <= 1 {
		t.Fatalf("MaxRHat = %v, want the swept variables' worst %v, above 1 (R̂ = %v)", d.MaxRHat, want, d.RHat)
	}

	sweeps := 0
	opts := Options{Burnin: 1, Samples: 4, Seed: 6, OnIteration: func(SweepStats) { sweeps++ }}
	d = MarginalsWithDiagnostics(graphFromFactors(t, n+4, small), opts, 4)
	if sweeps != 0 || d.MaxRHat > 1 || !d.Converged(1.1) {
		t.Fatalf("nothing to sample: %d sweeps ran, MaxRHat %v", sweeps, d.MaxRHat)
	}
}
