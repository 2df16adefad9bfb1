package infer

import (
	"probkb/internal/engine"
	"probkb/internal/factor"
	"probkb/internal/kb"
)

// PendingGraph returns the factor graph an inference pass over TΠ needs,
// and how many pending facts — facts whose weight is NULL, the only
// cells ApplyMarginals writes — it holds. The graph holds:
//
//   - every component that holds a pending fact, a pending fact no
//     clause touches being one of its own (its marginal is σ(bias));
//   - every component above exactMaxVars, but only when a pending fact
//     lies in one: the chain then sweeps the variables the whole graph's
//     chain sweeps. When none does, no chain runs, since every estimate
//     it made would be thrown away.
//
// Partition.Graph keeps TΠ's and TΦ's rows in table order, so each
// component is enumerated, and the chain drawn, exactly as on the whole
// graph: every marginal written is bit-identical to the one a pass over
// factor.FromTables writes (DESIGN.md §5).
func PendingGraph(facts, factors *engine.Table) (*factor.Graph, int, error) {
	p, err := factor.NewPartition(facts, factors)
	if err != nil {
		return nil, 0, err
	}
	n := facts.NumRows()
	keep := make([]bool, n)
	pending, swept := 0, false
	for r, w := range facts.Float64Col(kb.TPiW)[:n] {
		if engine.IsNullFloat64(w) {
			root := p.Root(r)
			keep[root] = true
			swept = swept || p.Size(root) > exactMaxVars
			pending++
		}
	}
	if swept {
		for r := range keep {
			if p.Root(r) == r && p.Size(r) > exactMaxVars {
				keep[r] = true
			}
		}
	}
	g, err := p.Graph(keep)
	return g, pending, err
}
