package infer

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestLocalMarginalOracle: with an unbounded radius the subgraph is the
// variable's whole connected component, whose marginal equals the full
// graph's. A component within the enumeration bound gives the very
// number the global pass computes (and the brute-force one); a larger
// one is sampled and must sit within Monte Carlo tolerance of Exact.
func TestLocalMarginalOracle(t *testing.T) {
	for seed := int64(300); seed < 304; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(t, rng, 3+rng.Intn(8))
		brute, global := bruteForce(t, g), Marginals(g, Options{Seed: seed + 1})
		for v := range brute {
			res, err := LocalMarginalContext(context.Background(), g, int32(v), 0, Options{Samples: 77, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if res.Probability != global[v] || math.Abs(res.Probability-brute[v]) > 1e-12 {
				t.Errorf("seed %d var %d: local %v, global %v, brute force %v (%d vars)",
					seed, v, res.Probability, global[v], brute[v], res.Vars)
			}
			if res.Collected != 77 || res.Vars == 0 {
				t.Errorf("seed %d var %d: local run %+v, want the requested 77 samples reported", seed, v, res)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	g := ringGraph(t, exactMaxVars+3, 0.7, [4]any{3, null, null, 1.0}, [4]any{11, null, null, -0.8})
	exact, err := Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	for v := range exact {
		res, err := LocalMarginalContext(context.Background(), g, int32(v), 0, Options{Burnin: 500, Samples: 8000, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(res.Probability - exact[v]); d > oracleTol || res.Collected != 8000 {
			t.Errorf("ring var %d: local %v vs exact %v (|Δ|=%v, collected %d)", v, res.Probability, exact[v], d, res.Collected)
		}
	}
}

// A bounded radius must still produce a sane probability, and the
// neighborhood must be no larger than the full graph.
func TestLocalMarginalBoundedRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(t, rng, 10)
	res, err := LocalMarginalContext(context.Background(), g, 0, 1, Options{Burnin: 50, Samples: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probability < 0 || res.Probability > 1 {
		t.Fatalf("probability = %v", res.Probability)
	}
	if res.Vars > g.NumVars() {
		t.Fatalf("neighborhood has %d vars, graph only %d", res.Vars, g.NumVars())
	}
}

func TestLocalMarginalBadTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(t, rng, 4)
	if _, err := LocalMarginalContext(context.Background(), g, 99, 0, Options{}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := LocalMarginalContext(context.Background(), g, -1, 0, Options{}); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestLocalMarginalCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(t, rng, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := LocalMarginalContext(ctx, g, 0, 0, Options{Burnin: 100, Samples: 1000, Seed: 1})
	if err == nil {
		t.Fatal("cancelled context produced no error")
	}
	if res.Collected != 0 {
		// Partial estimates are allowed, but a pre-cancelled context
		// should not have collected anything.
		t.Fatalf("collected %d sweeps on a pre-cancelled context", res.Collected)
	}
}
