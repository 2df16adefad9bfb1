package infer

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"probkb/internal/factor"
)

// exactMaxVars is k, the largest connected component inference
// enumerates instead of sampling. A Gray-code step costs about what a
// chain update does, so 2ⁿ steps cross the default chain's 600·n near 13
// variables; up to 16 an exact, seed-independent marginal costs at most
// ~2.3 ms per component (BenchmarkExact16, BenchmarkExactVsChain), paid
// per component that size where the chain pays per sweep over
// everything; by 22 it is 0.15 s. One rule, not a knob: DESIGN.md §5.
const exactMaxVars = 16

// MaxExactVars bounds Exact, the samplers' test oracle: components of up
// to 2^22 states are the largest it will walk.
const MaxExactVars = 22

// Plan is how MarginalsContext splits a graph's connected components:
// Exact of the Components are enumerated, one chain sweeps the
// SampledVars variables of the rest; MaxComponent is the largest's size.
type Plan struct{ Components, Exact, SampledVars, MaxComponent int }

// PlanOf returns the split MarginalsContext will make of g.
func PlanOf(g *factor.Graph) Plan {
	_, _, _, plan := split(g, exactMaxVars)
	return plan
}

// split groups g's sampled variables by component (off and vars as
// factor.Graph.Components returns them) and plans them at the given
// bound; swept lists, ascending, the variables of the components above it.
func split(g *factor.Graph, limit int) (off, vars, swept []int32, plan Plan) {
	off, vars = g.Components()
	plan.Components = len(off) - 1
	for c := 0; c < plan.Components; c++ {
		cv := vars[off[c]:off[c+1]]
		if len(cv) <= limit {
			plan.Exact++
		} else {
			swept = append(swept, cv...)
		}
		plan.MaxComponent = max(plan.MaxComponent, len(cv))
	}
	slices.Sort(swept)
	plan.SampledVars = len(swept)
	return off, vars, swept, plan
}

// Exact computes the true marginals P(X_v = 1) by enumeration alone —
// the test oracle for the Gibbs samplers. It fails on a graph with a
// component of more than MaxExactVars variables.
func Exact(g *factor.Graph) ([]float64, error) {
	if g.NumVars() == 0 {
		return nil, nil
	}
	probs, swept, _ := exactMarginals(context.Background(), g, MaxExactVars, 1)
	if len(swept) > 0 {
		return nil, fmt.Errorf("infer: a component of more than %d variables exceeds the exact-inference bound", MaxExactVars)
	}
	return probs, nil
}

// exactMarginals returns every marginal that needs no sampling — σ(bias)
// for a variable no clause touches, the enumerated marginals of every
// component of at most limit variables — and swept, the variables of the
// larger components, whose entries stay 0 until a chain fills them.
// Components are independent, so up to workers goroutines take
// whole ones and write disjoint slots of the shared slices: no result
// depends on workers or scheduling, no scratch outlives the call. ctx is
// checked between components.
func exactMarginals(ctx context.Context, g *factor.Graph, limit, workers int) ([]float64, []int32, error) {
	probs := make([]float64, g.NumVars())
	for v := range probs {
		if g.Component(int32(v)) < 0 {
			probs[v] = sigmoid(g.Bias(int32(v)))
		}
	}
	off, vars, swept, plan := split(g, limit)
	assign := make([]bool, g.NumVars()) // all false between components
	done := ctx.Done()
	var next atomic.Int64
	// Workers claim runs of 64 components (most have two variables: one
	// claim each would cost more than the walk), a goroutine per four
	// runs at most: a point query's one component, or a toy graph, runs
	// inline.
	const run = 64
	workers = max(1, min(workers, 1+plan.Exact/(4*run)))
	parallelFor(workers, workers, func(int) {
		for lo := int(next.Add(run)) - run; lo < plan.Components; lo = int(next.Add(run)) - run {
			for c := lo; c < min(lo+run, plan.Components); c++ {
				select {
				case <-done:
					return
				default:
				}
				if cv := vars[off[c]:off[c+1]]; len(cv) <= limit {
					enumerate(g, cv, assign, probs)
				}
			}
		}
	})
	return probs, swept, ctx.Err()
}

// enumerate writes into probs the exact marginals of one connected
// component (at most MaxExactVars variables; assign false on all of
// them, and again on return). It walks the 2ⁿ assignments in Gray-code
// order, so each step flips one variable and moves the log-score by that
// variable's conditional log-odds: one kernel call per state, no 2ⁿ
// table. Scores are relative to the all-false state and weights to the
// running maximum score (a streaming log-sum-exp: a new maximum rescales
// the n+1 accumulators), so large weights cannot overflow.
func enumerate(g *factor.Graph, vars []int32, assign []bool, probs []float64) {
	n := len(vars)
	var num [MaxExactVars]float64 // num[j]: weight of the states with vars[j] true
	score, top, z := 0.0, 0.0, 1.0
	for t := uint32(1); t < 1<<n; t++ {
		v := vars[bits.TrailingZeros32(t)]
		score += flipDelta(g, assign, v)
		assign[v] = !assign[v]
		if score > top {
			scale := math.Exp(top - score)
			z *= scale
			for j := range num[:n] {
				num[j] *= scale
			}
			top = score
		}
		w := math.Exp(score - top)
		z += w
		for m := t ^ t>>1; m != 0; m &= m - 1 {
			num[bits.TrailingZeros32(m)] += w
		}
	}
	assign[vars[n-1]] = false // the walk ends on the top bit alone
	for j, v := range vars {
		probs[v] = num[j] / z
	}
}
