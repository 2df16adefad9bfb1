package quality

import (
	"sort"

	"probkb/internal/kb"
	"probkb/internal/mln"
)

// RuleScore is the statistical significance of one rule (Section 5.3):
// the smoothed conditional probability that the head holds given that the
// body holds, estimated from the observed facts. Sherlock scores its
// learned clauses the same way; ProbKB cleans rules by keeping the top-θ
// fraction.
//
// The smoothing is Hits / (Matches + 2): a rule with no body support
// scores zero (no evidence is not good evidence), and small-sample flukes
// are damped rather than rewarded.
type RuleScore struct {
	Index   int     // position in KB.Rules
	Matches int     // body groundings found in Π
	Hits    int     // of those, with the head also in Π
	Score   float64 // Hits / (Matches + 2)
}

// ScoreRules estimates every rule's statistical significance against the
// KB's observed facts.
func ScoreRules(k *kb.KB) []RuleScore {
	// Index the facts two ways: by (rel, c1, c2) for body enumeration and
	// as a key set for head checks.
	type sig struct{ rel, c1, c2 int32 }
	type pair struct{ x, y int32 }
	bySig := make(map[sig][]pair)
	tpi := k.FactsView()
	rels, xs, c1s := tpi.Int32Col(kb.TPiR), tpi.Int32Col(kb.TPiX), tpi.Int32Col(kb.TPiC1)
	ys, c2s := tpi.Int32Col(kb.TPiY), tpi.Int32Col(kb.TPiC2)
	for r, rel := range rels {
		s := sig{rel, c1s[r], c2s[r]}
		bySig[s] = append(bySig[s], pair{xs[r], ys[r]})
	}

	scores := make([]RuleScore, len(k.Rules))
	for i := range k.Rules {
		c := &k.Rules[i]
		rs := RuleScore{Index: i}

		headOf := func(val map[mln.Var]int32) kb.Key {
			return kb.Key{
				Rel: c.Head.Rel,
				X:   val[mln.X], XClass: c.Class[mln.X],
				Y: val[mln.Y], YClass: c.Class[mln.Y],
			}
		}

		b0 := c.Body[0]
		s0 := sig{b0.Rel, c.Class[b0.Arg1], c.Class[b0.Arg2]}
		if len(c.Body) == 1 {
			for _, p := range bySig[s0] {
				val := map[mln.Var]int32{b0.Arg1: p.x, b0.Arg2: p.y}
				rs.Matches++
				if k.HasFact(headOf(val)) {
					rs.Hits++
				}
			}
		} else {
			b1 := c.Body[1]
			s1 := sig{b1.Rel, c.Class[b1.Arg1], c.Class[b1.Arg2]}
			// Hash the second atom's facts by their z value.
			zOf := func(a mln.Atom, p pair) int32 {
				if a.Arg1 == mln.Z {
					return p.x
				}
				return p.y
			}
			byZ := make(map[int32][]pair)
			for _, p := range bySig[s1] {
				byZ[zOf(b1, p)] = append(byZ[zOf(b1, p)], p)
			}
			for _, p0 := range bySig[s0] {
				z := zOf(b0, p0)
				for _, p1 := range byZ[z] {
					val := map[mln.Var]int32{
						b0.Arg1: p0.x, b0.Arg2: p0.y,
						b1.Arg1: p1.x, b1.Arg2: p1.y,
					}
					rs.Matches++
					if k.HasFact(headOf(val)) {
						rs.Hits++
					}
				}
			}
		}
		rs.Score = float64(rs.Hits) / float64(rs.Matches+2)
		scores[i] = rs
	}
	return scores
}

// CleanRules returns a copy of the KB keeping only the top-θ fraction of
// rules by statistical significance (θ ∈ (0, 1]; θ = 1 keeps everything).
// Ties break toward the original rule order, keeping runs deterministic.
func CleanRules(k *kb.KB, theta float64) *kb.KB {
	if theta >= 1 {
		return k.Clone()
	}
	scores := ScoreRules(k)
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return scores[order[a]].Score > scores[order[b]].Score
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
	return out
}
