package infer

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestMarginalsContextCancel cancels the sampler mid-run (from the
// per-sweep callback) and checks the partial contract: a context error,
// a positive collected count, and marginals normalized over the sweeps
// actually collected — all well inside a second. The graph has one
// component for the chain and one for the enumeration, whose marginals
// a partial run returns whole.
func TestMarginalsContextCancel(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		g := ringGraph(t, exactMaxVars+2, 0.5,
			[4]any{20, null, null, 1.0},
			[4]any{21, 20, null, 1.5},
			[4]any{22, 21, null, 0.5},
			[4]any{23, null, null, -0.5},
		)
		ctx, cancel := context.WithCancel(context.Background())
		opts := Options{Burnin: 10, Samples: 1_000_000, Seed: 1, Parallel: parallel}
		opts.OnIteration = func(st SweepStats) {
			if st.Sweep >= opts.Burnin+20 {
				cancel()
			}
		}
		start := time.Now()
		probs, collected, err := MarginalsContext(ctx, g, opts)
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("parallel=%v: cancellation took %v, want < 1s", parallel, elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallel=%v: err = %v, want context.Canceled", parallel, err)
		}
		if collected < 20 || collected >= opts.Samples {
			t.Fatalf("parallel=%v: collected = %d, want a partial positive count", parallel, collected)
		}
		if len(probs) != g.NumVars() {
			t.Fatalf("parallel=%v: %d marginals for %d vars", parallel, len(probs), g.NumVars())
		}
		for v, p := range probs {
			if p < 0 || p > 1 {
				t.Fatalf("parallel=%v: marginal[%d] = %v not normalized over collected sweeps", parallel, v, p)
			}
		}
		exact, err := Exact(g)
		if err != nil {
			t.Fatal(err)
		}
		for v := 20; v < 24; v++ {
			if probs[v] != exact[v] {
				t.Fatalf("parallel=%v: enumerated marginal[%d] = %v after a cancelled chain, want %v", parallel, v, probs[v], exact[v])
			}
		}
	}
}

// TestMarginalsContextCancelledBeforeStart returns no marginals when the
// context is already dead.
func TestMarginalsContextCancelledBeforeStart(t *testing.T) {
	g := graphFromFactors(t, 1, [][4]any{{0, null, null, 1.0}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	probs, collected, err := MarginalsContext(ctx, g, Options{Burnin: 5, Samples: 50, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if probs != nil || collected != 0 {
		t.Fatalf("probs = %v collected = %d, want none", probs, collected)
	}
}

// TestSamplesPerSecondGaugeResets checks that the live throughput gauge
// does not keep its last in-flight value after the chain ends — neither
// on completion nor on cancellation.
func TestSamplesPerSecondGaugeResets(t *testing.T) {
	gauge := samplesPerSecond
	g := ringGraph(t, exactMaxVars+1, 0.5)
	Marginals(g, Options{Burnin: 10, Samples: 200, Seed: 1})
	if v := gauge.Value(); v != 0 {
		t.Fatalf("gauge = %v after a completed run, want 0", v)
	}

	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Burnin: 5, Samples: 1_000_000, Seed: 1}
	opts.OnIteration = func(st SweepStats) {
		if st.Sweep >= 20 {
			cancel()
		}
	}
	if _, _, err := MarginalsContext(ctx, g, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if v := gauge.Value(); v != 0 {
		t.Fatalf("gauge = %v after a cancelled run, want 0", v)
	}
}
