package factor

import "slices"

// Subgraph extracts the factor graph induced by the variables within
// radius hops of seed in the Markov graph (two variables are one hop
// apart when they share a factor). radius <= 0 means unbounded, which
// yields seed's entire connected component — the exact support of its
// marginal, since disconnected factors cancel in the conditional.
//
// The subgraph keeps the original fact IDs, so VarOf and FactID keep
// working on it; only the variable indices are renumbered (in
// increasing original order, for determinism). Factors keep their
// relative order; those with any variable outside the ball are dropped
// — the truncated-neighborhood approximation of query-time MCMC: the
// boundary variables keep their singleton evidence but lose potentials
// reaching further out, so a bounded radius trades accuracy for
// locality. Inference over the subgraph is exact for the component when
// radius covers it.
//
// The cost is one pass over g's columns, whatever the ball's size: the
// caller on the query path has just built g from a local grounding, at
// the same cost.
func (g *Graph) Subgraph(seed int32, radius int) *Graph {
	// remap[v] >= 0 marks v as inside the ball; once the ball is complete
	// it holds v's index in the subgraph.
	remap := make([]int32, g.NumVars())
	for v := range remap {
		remap[v] = -1
	}
	remap[seed] = 0
	vars := []int32{seed} // breadth-first; vars[lo:] is the frontier
	for hop, lo := 0, 0; lo < len(vars) && (radius <= 0 || hop < radius); hop++ {
		hi := len(vars)
		for _, v := range vars[lo:hi] {
			for _, f := range g.FactorsOf(v) {
				fv, k := g.clauseVars(f)
				for _, u := range fv[:k] {
					if remap[u] < 0 {
						remap[u] = 0
						vars = append(vars, u)
					}
				}
			}
		}
		lo = hi
	}
	slices.Sort(vars)

	ids := make([]int32, len(vars))
	for i, v := range vars {
		remap[v] = int32(i)
		ids[i] = g.ids[v]
	}
	sub := newGraph(ids, 0)
	_ = sub.indexIDs() // cannot fail: a subset of g's distinct IDs

	// in translates one column entry: absent stays absent, a variable
	// outside the ball reports !ok.
	in := func(v int32) (int32, bool) {
		if v < 0 {
			return -1, true
		}
		return remap[v], remap[v] >= 0
	}
	for f := range g.head {
		h, okH := in(g.head[f])
		b1, ok1 := in(g.b1[f])
		b2, ok2 := in(g.b2[f])
		if okH && ok1 && ok2 {
			sub.addFactor(h, b1, b2, g.w[f])
		}
	}
	sub.buildAdjacency()
	return sub
}
