package infer

import (
	"math"
	"math/rand"
	"testing"

	"probkb/internal/factor"
)

// condLogOdds is the reference the flat kernel is checked against: the
// conditional log-odds computed factor object by factor object through
// Factor.Satisfied, setting v true and then false. It was the samplers'
// kernel before the graph went columnar; a factor counts once however
// many of its positions v occupies, as in Graph.LogScore.
func condLogOdds(g *factor.Graph, assign []bool, v int32) float64 {
	var lo float64
	old := assign[v]
	for i := 0; i < g.NumFactors(); i++ {
		f := g.Factor(i)
		touches := false
		for _, u := range f.Vars() {
			touches = touches || u == v
		}
		if !touches {
			continue
		}
		assign[v] = true
		if f.Satisfied(assign) {
			lo += f.W
		}
		assign[v] = false
		if f.Satisfied(assign) {
			lo -= f.W
		}
	}
	assign[v] = old
	return lo
}

// awkwardGraph builds a random graph over n variables with every shape
// the kernel has a branch for: a head repeated in its own body, a body
// variable listed twice, several unit clauses on one variable, negative
// weights, and (with n large enough against the factor count) variables
// with no factor at all.
func awkwardGraph(t *testing.T, rng *rand.Rand, n int) *factor.Graph {
	return graphFromFactors(t, n, awkwardRows(rng, n))
}

// awkwardRows is awkwardGraph's TΦ.
func awkwardRows(rng *rand.Rand, n int) [][4]any {
	var rows [][4]any
	for i := rng.Intn(2 * n); i > 0; i-- {
		rows = append(rows, [4]any{rng.Intn(n), null, null, rng.Float64()*4 - 2})
	}
	for i := 1 + rng.Intn(2*n); i > 0; i-- {
		head, b1, b2 := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		w := rng.Float64()*3 - 1
		switch rng.Intn(5) {
		case 0:
			rows = append(rows, [4]any{head, b1, null, w})
		case 1:
			rows = append(rows, [4]any{head, head, b2, w}) // head in its own body
		case 2:
			rows = append(rows, [4]any{head, b1, b1, w}) // body variable twice
		case 3:
			rows = append(rows, [4]any{head, head, null, w}) // h ← h
		default:
			rows = append(rows, [4]any{head, b1, b2, w})
		}
	}
	return rows
}

// TestLogOddsMatchesSatisfiedReference is the kernel differential: for
// every variable under random assignments the flat kernel equals the
// Satisfied-based reference.
func TestLogOddsMatchesSatisfiedReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g := awkwardGraph(t, rng, n)
		assign := make([]bool, n)
		for trial := 0; trial < 8; trial++ {
			for v := range assign {
				assign[v] = rng.Intn(2) == 0
			}
			for v := int32(0); int(v) < n; v++ {
				got, want := logOdds(g, assign, v), condLogOdds(g, assign, v)
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("seed %d var %d assign %v: flat kernel %v, reference %v", seed, v, assign, got, want)
				}
				// MAP's flip score is the same kernel, signed.
				before := g.LogScore(assign)
				assign[v] = !assign[v]
				after := g.LogScore(assign)
				assign[v] = !assign[v]
				if d := flipDelta(g, assign, v); math.Abs(d-(after-before)) > 1e-9 {
					t.Fatalf("seed %d var %d: flipDelta %v, LogScore difference %v", seed, v, d, after-before)
				}
			}
		}
	}
}

// TestAwkwardGraphsMatchExact runs both samplers on the awkward shapes
// against the enumeration oracle: the kernel differential above says the
// conditional is right factor by factor, this says the adjacency lists
// each factor exactly once.
func TestAwkwardGraphsMatchExact(t *testing.T) {
	for seed := int64(400); seed < 406; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := awkwardGraph(t, rng, 3+rng.Intn(6))
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, parallel := range []bool{false, true} {
			probs := chainMarginals(g, Options{Burnin: 500, Samples: 8000, Seed: seed, Parallel: parallel})
			for v := range exact {
				if d := math.Abs(probs[v] - exact[v]); d > oracleTol {
					t.Errorf("seed %d parallel=%v var %d: gibbs %v vs exact %v", seed, parallel, v, probs[v], exact[v])
				}
			}
		}
	}
}

// TestEvidenceOnlyMarginalsAreExact: a variable no clause touches is not
// sampled; its marginal is σ(Σ unit weights) to the last digit, and 0.5
// when it has no factor at all — from the chain and from Marginals.
func TestEvidenceOnlyMarginalsAreExact(t *testing.T) {
	g := graphFromFactors(t, 8, [][4]any{
		{0, null, null, 1.3},
		{1, 0, null, 0.8},
		{2, 1, 0, 1.1},
		{3, null, null, 0.7}, // evidence only
		{4, null, null, 2.0}, // evidence only, three unit clauses
		{4, null, null, -0.6},
		{4, null, null, 0.25},
		{5, null, null, -1.9}, // evidence only, negative
		// 6 and 7: no factor at all
	})
	if got := g.Sampled(); len(got) != 3 {
		t.Fatalf("sampled = %v, want the three clause-connected variables", got)
	}
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, parallel := range []bool{false, true, false} {
		run := chainMarginals
		if i == 2 {
			run = Marginals
		}
		probs := run(g, Options{Burnin: 10, Samples: 50, Seed: 1, Parallel: parallel})
		for v := 3; v < 8; v++ {
			if math.Abs(probs[v]-exact[v]) > 1e-12 {
				t.Errorf("parallel=%v var %d: %v, exact %v", parallel, v, probs[v], exact[v])
			}
		}
		if probs[6] != 0.5 || probs[7] != 0.5 {
			t.Errorf("parallel=%v: factor-less marginals %v, %v, want exactly 0.5", parallel, probs[6], probs[7])
		}
	}
}

// TestEvidenceOnlyVariablesMoveNothing is the metamorphic check on "the
// sampler samples only what is random": interleaving evidence-only and
// factor-less variables into a graph — and their unit rows into TΦ —
// leaves every original variable's marginal bit-identical for the same
// seed, in both samplers. (Before the sampled list, the extra variables
// consumed draws from the shared stream and shifted every per-variable
// seed.)
func TestEvidenceOnlyVariablesMoveNothing(t *testing.T) {
	for seed := int64(500); seed < 504; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		var base [][4]any
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				base = append(base, [4]any{v, null, null, rng.Float64()*3 - 1})
			}
		}
		for i := 0; i < 2*n; i++ {
			head, b1 := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 {
				base = append(base, [4]any{head, b1, null, rng.Float64() * 2})
			} else {
				base = append(base, [4]any{head, b1, rng.Intn(n), rng.Float64() * 2})
			}
		}

		// Variable v of the base graph becomes variable at[v] of the
		// padded one; the gaps are evidence-only or factor-less.
		at := make([]int, n)
		next := 0
		var units [][4]any
		pad := func() {
			for i := rng.Intn(3); i > 0; i-- {
				for j := rng.Intn(3); j > 0; j-- {
					units = append(units, [4]any{next, null, null, rng.Float64()*4 - 2})
				}
				next++
			}
		}
		for v := 0; v < n; v++ {
			pad()
			at[v] = next
			next++
		}
		pad()
		move := func(x any) any {
			if v, ok := x.(int); ok {
				return at[v]
			}
			return x
		}
		// Scatter the new unit rows through TΦ instead of leading it.
		var padded [][4]any
		for _, r := range base {
			for len(units) > 0 && rng.Intn(2) == 0 {
				padded, units = append(padded, units[0]), units[1:]
			}
			padded = append(padded, [4]any{move(r[0]), move(r[1]), move(r[2]), r[3]})
		}
		padded = append(padded, units...)

		g, big := graphFromFactors(t, n, base), graphFromFactors(t, next, padded)
		for _, parallel := range []bool{false, true} {
			opts := Options{Burnin: 20, Samples: 100, Seed: seed, Parallel: parallel}
			want, got := chainMarginals(g, opts), chainMarginals(big, opts)
			for v := range want {
				if math.Float64bits(got[at[v]]) != math.Float64bits(want[v]) {
					t.Fatalf("seed %d parallel=%v var %d: %v with the extra variables, %v without",
						seed, parallel, v, got[at[v]], want[v])
				}
			}
		}
	}
}
