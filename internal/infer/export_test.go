package infer

import (
	"context"
	"math"
	"testing"

	"probkb/internal/factor"
)

// chainMarginals forces the Gibbs chain over every sampled variable,
// whatever the component sizes — what Marginals was before small
// components were enumerated. The sampler tests run on it: their graphs
// are small enough for the Exact oracle, so Marginals itself would
// enumerate them and never draw a sample.
func chainMarginals(g *factor.Graph, opts Options) []float64 {
	probs, _, _ := chainMarginalsContext(context.Background(), g, opts)
	return probs
}

// chainMarginalsContext is chainMarginals with MarginalsContext's
// contract and the process-wide chain feed installed.
func chainMarginalsContext(ctx context.Context, g *factor.Graph, opts Options) ([]float64, int, error) {
	if g.NumVars() == 0 {
		return nil, 0, ctx.Err()
	}
	probs := make([]float64, g.NumVars())
	for v := range probs {
		if g.Component(int32(v)) < 0 {
			probs[v] = sigmoid(g.Bias(int32(v)))
		}
	}
	collected, err := sample(ctx, g, g.Sampled(), probs, opts.withDefaults(), chain0)
	if collected == 0 {
		return nil, 0, err
	}
	return probs, collected, err
}

// bruteForce is the enumeration's oracle, sharing no code with it: the
// marginals of the whole graph — every variable at once, components
// ignored — from Graph.LogScore over all 2ⁿ assignments, with a two-pass
// log-sum-exp.
func bruteForce(t *testing.T, g *factor.Graph) []float64 {
	t.Helper()
	n := g.NumVars()
	if n > 18 {
		t.Fatalf("bruteForce over %d variables", n)
	}
	assign := make([]bool, n)
	logs := make([]float64, 1<<n)
	top := math.Inf(-1)
	for mask := range logs {
		for v := range assign {
			assign[v] = mask>>v&1 == 1
		}
		logs[mask] = g.LogScore(assign)
		top = math.Max(top, logs[mask])
	}
	probs := make([]float64, n)
	var z float64
	for mask, l := range logs {
		w := math.Exp(l - top)
		z += w
		for v := range probs {
			if mask>>v&1 == 1 {
				probs[v] += w
			}
		}
	}
	for v := range probs {
		probs[v] /= z
	}
	return probs
}

// ringGraph builds one component of n variables: v ← v+1 and v+1 ← v
// around a cycle, weight w each, no unit clauses. With a large w the
// component is close to bimodal (all true or all false), which mixes
// slowly.
func ringGraph(t testing.TB, n int, w float64, extra ...[4]any) *factor.Graph {
	t.Helper()
	rows := extra
	for v := 0; v < n; v++ {
		u := (v + 1) % n
		rows = append(rows, [4]any{v, u, null, w}, [4]any{u, v, null, w})
	}
	total := n
	for _, r := range extra {
		for _, x := range r[:3] {
			if v, ok := x.(int); ok && v >= total {
				total = v + 1
			}
		}
	}
	return graphFromFactors(t, total, rows)
}

// Valid reports whether the coloring assigns distinct colors to every
// pair of neighboring variables.
func (c Coloring) Valid(g *factor.Graph) bool {
	for v := int32(0); int(v) < g.NumVars(); v++ {
		for _, u := range g.Neighbors(v) {
			if c.Colors[v] == c.Colors[u] {
				return false
			}
		}
	}
	return true
}
