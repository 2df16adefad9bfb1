package infer

import (
	"math"
	"math/rand"

	"probkb/internal/factor"
)

// MAP inference: find the most probable possible world (Section 2.2 of
// the paper mentions MAP as the alternative to the marginal inference
// ProbKB ships with; this implementation makes the repository's
// inference substrate complete).
//
// The algorithm is MaxWalkSAT (Kautz, Selman & Jiang), the standard MLN
// MAP search: repeatedly pick an unsatisfied factor and flip either the
// variable that most improves the weighted satisfaction score (greedy
// move) or a random variable of the factor (noise move, probability p).

// MAPOptions configures MAP search.
type MAPOptions struct {
	// Restarts is the number of random restarts (default 3).
	Restarts int
	// FlipsPerRestart bounds each walk (default 50 × #vars).
	FlipsPerRestart int
	// Noise is the random-move probability (default 0.2).
	Noise float64
	// Seed makes runs reproducible.
	Seed int64
}

func (o MAPOptions) withDefaults(nvars int) MAPOptions {
	if o.Restarts == 0 {
		o.Restarts = 3
	}
	if o.FlipsPerRestart == 0 {
		o.FlipsPerRestart = 50 * nvars
	}
	if o.Noise == 0 {
		o.Noise = 0.2
	}
	return o
}

// MAPResult is the best assignment found and its unnormalized log score.
type MAPResult struct {
	Assignment []bool
	LogScore   float64
}

// MAP searches for the most probable assignment by MaxWalkSAT.
func MAP(g *factor.Graph, opts MAPOptions) MAPResult {
	n := g.NumVars()
	if n == 0 {
		return MAPResult{}
	}
	opts = opts.withDefaults(n)
	rng := rand.New(rand.NewSource(opts.Seed))

	best := MAPResult{Assignment: make([]bool, n), LogScore: math.Inf(-1)}
	assign := make([]bool, n)

	for restart := 0; restart < opts.Restarts; restart++ {
		for v := range assign {
			assign[v] = rng.Intn(2) == 0
		}
		score := g.LogScore(assign)
		if score > best.LogScore {
			best.LogScore = score
			copy(best.Assignment, assign)
		}

		for flip := 0; flip < opts.FlipsPerRestart; flip++ {
			fi, ok := pickUnsatisfied(g, assign, rng)
			if !ok {
				// Every positive-weight factor satisfied: for Horn MLNs
				// with non-negative weights this is a global optimum.
				break
			}
			f := g.Factor(fi)
			vars := f.Vars()

			var flipVar int32
			if rng.Float64() < opts.Noise {
				flipVar = vars[rng.Intn(len(vars))]
			} else {
				// Greedy: flip the factor variable with the best score
				// delta.
				bestDelta := math.Inf(-1)
				flipVar = vars[0]
				for _, v := range vars {
					d := flipDelta(g, assign, v)
					if d > bestDelta {
						bestDelta = d
						flipVar = v
					}
				}
			}
			score += flipDelta(g, assign, flipVar)
			assign[flipVar] = !assign[flipVar]

			if score > best.LogScore {
				best.LogScore = score
				copy(best.Assignment, assign)
			}
		}
	}
	// Recompute the exact score of the winner (incremental updates are
	// exact in theory; this guards against drift and is cheap).
	best.LogScore = g.LogScore(best.Assignment)
	return best
}

// pickUnsatisfied samples a "score-losing" factor uniformly (reservoir
// sampling over one pass): an unsatisfied positive-weight factor, or a
// satisfied negative-weight one (which is the same thing after negating
// the clause).
func pickUnsatisfied(g *factor.Graph, assign []bool, rng *rand.Rand) (int, bool) {
	chosen := -1
	seen := 0
	for i := 0; i < g.NumFactors(); i++ {
		_, _, _, w := g.Clause(int32(i))
		sat := g.Satisfied(i, assign)
		losing := (w > 0 && !sat) || (w < 0 && sat)
		if !losing {
			continue
		}
		seen++
		if rng.Intn(seen) == 0 {
			chosen = i
		}
	}
	return chosen, chosen >= 0
}

// flipDelta computes the change in Σ w·[satisfied] from flipping v: the
// conditional log-odds, signed by the direction of the flip.
func flipDelta(g *factor.Graph, assign []bool, v int32) float64 {
	if assign[v] {
		return -logOdds(g, assign, v)
	}
	return logOdds(g, assign, v)
}

// ExactMAP enumerates every assignment and returns the true optimum —
// the test oracle for MAP (bounded by MaxExactVars).
func ExactMAP(g *factor.Graph) (MAPResult, error) {
	n := g.NumVars()
	if n > MaxExactVars {
		return MAPResult{}, errTooLarge(n)
	}
	best := MAPResult{Assignment: make([]bool, n), LogScore: math.Inf(-1)}
	if n == 0 {
		best.LogScore = 0
		return best, nil
	}
	assign := make([]bool, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for v := 0; v < n; v++ {
			assign[v] = mask&(1<<uint(v)) != 0
		}
		if s := g.LogScore(assign); s > best.LogScore {
			best.LogScore = s
			copy(best.Assignment, assign)
		}
	}
	return best, nil
}

func errTooLarge(n int) error {
	return &tooLargeError{n}
}

type tooLargeError struct{ n int }

func (e *tooLargeError) Error() string {
	return "infer: graph too large for exact inference"
}
