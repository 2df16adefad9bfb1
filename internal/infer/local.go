// Query-time marginal inference: the one inference routine over one
// variable's Markov neighborhood instead of the whole ground graph. The
// target's marginal depends only on its connected component — which is
// why a neighborhood of at most exactMaxVars variables gives the very
// number the global pass computes — and a bounded radius approximates
// even that (Wick et al.'s query-driven inference, PAPERS.md).
package infer

import (
	"context"
	"fmt"

	"probkb/internal/factor"
)

// LocalResult reports one local marginal estimate and the shape of the
// neighborhood it was computed over.
type LocalResult struct {
	// Probability is the estimated P(target = 1).
	Probability float64
	// Collected is the number of post-burn-in sweeps behind the estimate,
	// as MarginalsContext counts them: the requested Samples when the
	// neighborhood was enumerated.
	Collected int
	// Vars and Factors describe the extracted neighborhood subgraph.
	Vars    int
	Factors int
}

// LocalMarginalContext computes the marginal of one variable over only
// its radius-hop Markov neighborhood (radius <= 0: its whole connected
// component, which yields the same distribution as the full graph
// restricted to that component). target is a variable index of g.
// Cancellation mirrors MarginalsContext: on a context error after at
// least one collected sweep the estimate from the collected samples is
// returned along with the error.
func LocalMarginalContext(ctx context.Context, g *factor.Graph, target int32, radius int, opts Options) (LocalResult, error) {
	if int(target) < 0 || int(target) >= g.NumVars() {
		return LocalResult{}, fmt.Errorf("infer: local target variable %d out of range [0, %d)", target, g.NumVars())
	}
	sub := g.Subgraph(target, radius)
	res := LocalResult{Vars: sub.NumVars(), Factors: sub.NumFactors()}
	v, ok := sub.VarOf(g.FactID(target))
	if !ok {
		return res, fmt.Errorf("infer: target fact %d missing from its own neighborhood", g.FactID(target))
	}
	// No chain feed: a point query's chain must not pose as the
	// process-wide one the watchdogs and the throughput gauge follow.
	probs, collected, err := marginals(ctx, sub, opts.withDefaults(), nil)
	res.Collected = collected
	if collected > 0 {
		res.Probability = probs[v]
	}
	return res, err
}
