package quality

import (
	"sort"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
	"probkb/internal/mln"
)

// Constraint-informed rule cleaning: the paper closes its quality study
// with "incorrect rules lead to constraint violations. Thus, it is
// possible to use semantic constraints to improve rule learners"
// (§6.2.3). This file implements that future-work idea: run a bounded
// expansion, attribute every constraint violation to the rules that
// could have derived the violating facts in one step, and penalize those
// rules' statistical-significance scores before thresholding. It is a
// recorded experiment (probkb-bench -exp feedback, EXPERIMENTS.md), not a
// pipeline stage: KB.Expand cleans rules with CleanRules and never calls
// CleanRulesWithConstraints.

// RuleFeedback is one rule's violation attribution.
type RuleFeedback struct {
	Index      int // position in KB.Rules
	Derived    int // inferred facts this rule can one-step derive
	Implicated int // of those, facts of constraint-violating entities
	// Penalty in [0, 1): the implicated fraction, Laplace-damped.
	Penalty float64
}

// AttributeViolations grounds the KB for up to maxIters iterations
// (without deletions — the evidence must stay in place), finds the
// functional-constraint violations, and attributes them to rules.
func AttributeViolations(k *kb.KB, maxIters int) ([]RuleFeedback, error) {
	res, err := ground.Ground(k, ground.Options{MaxIterations: maxIters, SkipFactors: true})
	if err != nil {
		return nil, err
	}
	tpi := res.Facts
	viol := NewChecker(k).Violations(tpi)

	// Violating (entity, class) pairs by argument position.
	type entCls struct{ e, c int32 }
	badSubj := make(map[entCls]bool)
	badObj := make(map[entCls]bool)
	for _, v := range viol {
		if v.Type == kb.TypeI {
			badSubj[entCls{v.Entity, v.Class}] = true
		} else {
			badObj[entCls{v.Entity, v.Class}] = true
		}
	}

	// Index the expanded facts by (rel, c1, c2) for derivation checks.
	type sig struct{ rel, c1, c2 int32 }
	type pair struct{ x, y int32 }
	bySig := make(map[sig][]pair)
	for r := 0; r < tpi.NumRows(); r++ {
		s := sig{tpi.Int32Col(kb.TPiR)[r], tpi.Int32Col(kb.TPiC1)[r], tpi.Int32Col(kb.TPiC2)[r]}
		bySig[s] = append(bySig[s], pair{tpi.Int32Col(kb.TPiX)[r], tpi.Int32Col(kb.TPiY)[r]})
	}
	zOf := func(a mln.Atom, p pair) int32 {
		if a.Arg1 == mln.Z {
			return p.x
		}
		return p.y
	}
	headValOf := func(a mln.Atom, p pair) (mln.Var, int32) {
		if a.Arg1 == mln.Z {
			return a.Arg2, p.y
		}
		return a.Arg1, p.x
	}

	out := make([]RuleFeedback, len(k.Rules))
	for i := range k.Rules {
		c := &k.Rules[i]
		fb := RuleFeedback{Index: i}
		count := func(xv, yv int32) {
			fb.Derived++
			if badSubj[entCls{xv, c.Class[mln.X]}] || badObj[entCls{yv, c.Class[mln.Y]}] {
				fb.Implicated++
			}
		}
		b0 := c.Body[0]
		s0 := sig{b0.Rel, c.Class[b0.Arg1], c.Class[b0.Arg2]}
		if len(c.Body) == 1 {
			for _, p := range bySig[s0] {
				val := map[mln.Var]int32{b0.Arg1: p.x, b0.Arg2: p.y}
				count(val[mln.X], val[mln.Y])
			}
		} else {
			b1 := c.Body[1]
			s1 := sig{b1.Rel, c.Class[b1.Arg1], c.Class[b1.Arg2]}
			byZ := make(map[int32][]pair)
			for _, p := range bySig[s1] {
				byZ[zOf(b1, p)] = append(byZ[zOf(b1, p)], p)
			}
			for _, p0 := range bySig[s0] {
				hv0, val0 := headValOf(b0, p0)
				for _, p1 := range byZ[zOf(b0, p0)] {
					hv1, val1 := headValOf(b1, p1)
					vals := map[mln.Var]int32{hv0: val0, hv1: val1}
					count(vals[mln.X], vals[mln.Y])
				}
			}
		}
		fb.Penalty = float64(fb.Implicated) / float64(fb.Derived+2)
		out[i] = fb
	}
	return out, nil
}

// CleanRulesWithConstraints keeps the top-θ rules ranked by
// constraint-adjusted significance: score × (1 − penalty). Rules whose
// conclusions concentrate on constraint-violating entities sink in the
// ranking even when their raw body-support score looks healthy — the
// failure mode the paper observes for score-only cleaning ("incorrect
// rules with a high score").
func CleanRulesWithConstraints(k *kb.KB, theta float64, maxIters int) (*kb.KB, error) {
	if theta >= 1 {
		return k.Clone(), nil
	}
	scores := ScoreRules(k)
	feedback, err := AttributeViolations(k, maxIters)
	if err != nil {
		return nil, err
	}
	adjusted := make([]float64, len(scores))
	for i := range scores {
		adjusted[i] = scores[i].Score * (1 - feedback[i].Penalty)
	}
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if adjusted[order[a]] != adjusted[order[b]] {
			return adjusted[order[a]] > adjusted[order[b]]
		}
		// Equal adjusted scores (commonly both zero): prefer the less
		// implicated rule.
		return feedback[order[a]].Penalty < feedback[order[b]].Penalty
	})
	keep := int(float64(len(scores))*theta + 0.5)
	if keep < 1 && len(scores) > 0 {
		keep = 1
	}
	keepSet := make(map[int]bool, keep)
	for _, i := range order[:keep] {
		keepSet[i] = true
	}
	out := k.Clone()
	out.Rules = out.Rules[:0]
	for i, r := range k.Rules {
		if keepSet[i] {
			out.Rules = append(out.Rules, r)
		}
	}
	return out, nil
}

var _ = engine.NullInt32 // engine types appear in signatures upstream
