package infer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"probkb/internal/engine"
	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/kb"
)

// graphFromFactors builds a Graph over n variables with the given factor
// rows, going through the public table constructors.
func graphFromFactors(t testing.TB, n int, rows [][4]any) *factor.Graph {
	t.Helper()
	facts := engine.NewTable("T", kb.FactsSchema())
	for i := 0; i < n; i++ {
		facts.AppendRow(i, 0, i, 0, i, 0, engine.NullFloat64())
	}
	factors := engine.NewTable("TPhi", ground.FactorSchema())
	for _, r := range rows {
		factors.AppendRow(r[0], r[1], r[2], r[3])
	}
	g, err := factor.FromTables(facts, factors)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const null = engine.NullInt32

func TestSingleVariableMarginal(t *testing.T) {
	// One variable with a singleton weight w: P(X=1) = e^w / (1 + e^w).
	w := 1.2
	g := graphFromFactors(t, 1, [][4]any{{0, null, null, w}})
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(w) / (1 + math.Exp(w))
	if math.Abs(exact[0]-want) > 1e-12 {
		t.Fatalf("exact = %v, want %v", exact[0], want)
	}
	probs := Marginals(g, Options{Burnin: 200, Samples: 4000, Seed: 1})
	if math.Abs(probs[0]-want) > 0.03 {
		t.Fatalf("gibbs = %v, want ~%v", probs[0], want)
	}
}

func TestImplicationRaisesHeadMarginal(t *testing.T) {
	// X1 observed-ish (strong singleton), X0 ← X1 with positive weight:
	// P(X0) must exceed the no-rule baseline of 0.5.
	g := graphFromFactors(t, 2, [][4]any{
		{1, null, null, 3.0},
		{0, 1, null, 1.5},
	})
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	if exact[0] <= 0.5 {
		t.Fatalf("head marginal %v should exceed 0.5", exact[0])
	}
	if exact[1] <= exact[0] {
		t.Fatalf("evidence var should be more probable than derived: %v vs %v", exact[1], exact[0])
	}
}

// randomGraph builds a random clause-factor graph with n vars.
func randomGraph(t *testing.T, rng *rand.Rand, n int) *factor.Graph {
	var rows [][4]any
	// Singletons for a few vars.
	for v := 0; v < n; v++ {
		if rng.Intn(2) == 0 {
			rows = append(rows, [4]any{v, null, null, rng.Float64()*3 - 1})
		}
	}
	// Clause factors.
	nf := 1 + rng.Intn(2*n)
	for i := 0; i < nf; i++ {
		head := rng.Intn(n)
		b1 := rng.Intn(n)
		if b1 == head {
			b1 = (b1 + 1) % n
		}
		if n > 2 && rng.Intn(2) == 0 {
			b2 := rng.Intn(n)
			if b2 == head || b2 == b1 {
				b2 = (head + b1 + 1) % n
			}
			if b2 != head && b2 != b1 {
				rows = append(rows, [4]any{head, b1, b2, rng.Float64() * 2})
				continue
			}
		}
		rows = append(rows, [4]any{head, b1, null, rng.Float64() * 2})
	}
	return graphFromFactors(t, n, rows)
}

func TestGibbsMatchesExactSequential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(t, rng, 3+rng.Intn(5))
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		probs := chainMarginals(g, Options{Burnin: 500, Samples: 8000, Seed: seed})
		for v := range exact {
			if math.Abs(probs[v]-exact[v]) > 0.05 {
				t.Fatalf("seed %d var %d: gibbs %v vs exact %v", seed, v, probs[v], exact[v])
			}
		}
	}
}

func TestGibbsMatchesExactChromatic(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(t, rng, 3+rng.Intn(5))
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		probs := chainMarginals(g, Options{Burnin: 500, Samples: 8000, Seed: seed, Parallel: true, Workers: 4})
		for v := range exact {
			if math.Abs(probs[v]-exact[v]) > 0.05 {
				t.Fatalf("seed %d var %d: chromatic %v vs exact %v", seed, v, probs[v], exact[v])
			}
		}
	}
}

// TestColoringValid: the greedy coloring never gives neighbors the same
// color, on random graphs.
func TestColoringValid(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%12
		// Build inline to avoid needing *testing.T in the property.
		facts := engine.NewTable("T", kb.FactsSchema())
		for i := 0; i < n; i++ {
			facts.AppendRow(i, 0, i, 0, i, 0, engine.NullFloat64())
		}
		factors := engine.NewTable("TPhi", ground.FactorSchema())
		for i := 0; i < 2*n; i++ {
			h := rng.Intn(n)
			b := rng.Intn(n)
			if h == b {
				continue
			}
			factors.AppendRow(h, b, engine.NullInt32, 1.0)
		}
		g, err := factor.FromTables(facts, factors)
		if err != nil {
			return false
		}
		c := ColorGraph(g, g.Sampled())
		if !c.Valid(g) {
			return false
		}
		// Classes partition the sampled variables; the rest stay
		// uncolored.
		seen := 0
		for _, cl := range c.Classes {
			seen += len(cl)
		}
		for v, col := range c.Colors {
			if (col < 0) != (len(g.FactorsOf(int32(v))) == 0) {
				return false
			}
		}
		return seen == len(g.Sampled())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMarginalsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(t, rng, 6)
	a := chainMarginals(g, Options{Burnin: 50, Samples: 200, Seed: 7})
	b := chainMarginals(g, Options{Burnin: 50, Samples: 200, Seed: 7})
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed produced different marginals")
		}
	}
	// Chromatic with the same seed is deterministic under any worker
	// count (per-variable RNG streams).
	c1 := chainMarginals(g, Options{Burnin: 50, Samples: 200, Seed: 7, Parallel: true, Workers: 1})
	c4 := chainMarginals(g, Options{Burnin: 50, Samples: 200, Seed: 7, Parallel: true, Workers: 4})
	for v := range c1 {
		if c1[v] != c4[v] {
			t.Fatal("chromatic sampler not worker-count deterministic")
		}
	}
}

// TestExactBounds: the bound is per component. Any number of variables
// is fine while every component stays within MaxExactVars.
func TestExactBounds(t *testing.T) {
	if _, err := Exact(ringGraph(t, MaxExactVars+1, 1)); err == nil {
		t.Fatal("Exact accepted an oversized component")
	}
	var rows [][4]any
	for v := 0; v < 4*MaxExactVars; v += 2 {
		rows = append(rows, [4]any{v, v + 1, null, 1.0})
	}
	if _, err := Exact(graphFromFactors(t, 4*MaxExactVars+3, rows)); err != nil {
		t.Fatalf("Exact refused a large graph of two-variable components: %v", err)
	}
}

func TestEmptyGraph(t *testing.T) {
	facts := engine.NewTable("T", kb.FactsSchema())
	factors := engine.NewTable("TPhi", ground.FactorSchema())
	g, err := factor.FromTables(facts, factors)
	if err != nil {
		t.Fatal(err)
	}
	if probs := Marginals(g, Options{}); probs != nil {
		t.Fatal("empty graph should yield nil marginals")
	}
	if probs, err := Exact(g); err != nil || probs != nil {
		t.Fatal("empty graph exact should be nil")
	}
}

func TestApplyMarginals(t *testing.T) {
	facts := engine.NewTable("T", kb.FactsSchema())
	facts.AppendRow(0, 0, 0, 0, 0, 0, 0.9)                  // observed
	facts.AppendRow(1, 0, 1, 0, 1, 0, engine.NullFloat64()) // inferred
	g, err := factor.FromTables(facts, engine.NewTable("TPhi", ground.FactorSchema()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyMarginals(g, facts, []float64{0.1, 0.7}); err != nil {
		t.Fatal(err)
	}
	if facts.Float64Col(kb.TPiW)[0] != 0.9 {
		t.Fatal("observed weight overwritten")
	}
	if facts.Float64Col(kb.TPiW)[1] != 0.7 {
		t.Fatal("inferred weight not filled")
	}
	if err := ApplyMarginals(g, facts, []float64{0.1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// A NULL-weight fact missing from the graph is an error.
	facts.AppendRow(9, 0, 2, 0, 2, 0, engine.NullFloat64())
	if err := ApplyMarginals(g, facts, []float64{0.1, 0.7}); err == nil {
		t.Fatal("fact without a variable accepted")
	}
}

func TestSigmoid(t *testing.T) {
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %v", s)
	}
	if s := sigmoid(100); s <= 0.999 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := sigmoid(-100); s >= 0.001 {
		t.Fatalf("sigmoid(-100) = %v", s)
	}
	// Symmetry.
	if math.Abs(sigmoid(2)+sigmoid(-2)-1) > 1e-12 {
		t.Fatal("sigmoid not symmetric")
	}
}

func TestEndToEndPipelineMarginals(t *testing.T) {
	// Ground the paper example, infer, and check that inferred facts get
	// probabilities in (0, 1) written back into TΠ.
	k := kb.New()
	k.InternFact("born_in", "RG", "Writer", "NYC", "City", 0.96)
	k.InternFact("born_in", "RG", "Writer", "Brooklyn", "Place", 0.93)
	for _, line := range []string{
		"1.40 live_in(x:Writer, y:Place) :- born_in(x:Writer, y:Place)",
		"0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x:Place), born_in(z, y:City)",
	} {
		c, err := k.ParseRule(line)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.AddRule(c); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ground.Ground(k, ground.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := factor.FromResult(res)
	if err != nil {
		t.Fatal(err)
	}
	probs := Marginals(g, Options{Burnin: 200, Samples: 2000, Seed: 3})
	if err := ApplyMarginals(g, res.Facts, probs); err != nil {
		t.Fatal(err)
	}
	ws := res.Facts.Float64Col(kb.TPiW)
	for r := 0; r < res.Facts.NumRows(); r++ {
		if engine.IsNullFloat64(ws[r]) {
			t.Fatal("a fact still has NULL weight after ApplyMarginals")
		}
		if ws[r] < 0 || ws[r] > 1.6 {
			t.Fatalf("weight out of range: %v", ws[r])
		}
	}
	// Every component here is enumerated: the marginals are the
	// brute-force ones, not an estimate of them.
	for v, want := range bruteForce(t, g) {
		if math.Abs(probs[v]-want) > 1e-12 {
			t.Fatalf("var %d: marginal %v vs brute force %v", v, probs[v], want)
		}
	}
}
