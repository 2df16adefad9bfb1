// Package factor implements the ground factor graph (Section 2.2 and
// Definition 7 of the paper): the output of grounding and the input to
// marginal inference.
//
// A variable is one fact of TΠ (a binary ground atom); a factor is one
// row of TΦ. Two factor kinds exist:
//
//   - clause factors (I1, I2[, I3], w): the ground Horn clause
//     I1 ← I2[, I3] with weight w, contributing e^w unless the body is
//     true and the head false;
//   - singleton factors (I1, NULL, NULL, w): an observed fact's own
//     weight, a unit clause contributing e^w when the fact is true.
//
// Because TΦ records which facts derived which, it carries the entire
// lineage of the expanded KB; Lineage and Explain query it.
package factor

import (
	"fmt"
	"slices"
	"strings"

	"probkb/internal/engine"
	"probkb/internal/ground"
	"probkb/internal/kb"
)

// Factor is one ground factor, materialized from the graph's columns
// for the explaining and reporting paths (the samplers read the columns
// through Clause). Head is the consequent variable; Body has 0
// (singleton), 1, or 2 antecedent variables.
type Factor struct {
	Head int32
	Body []int32
	W    float64
}

// Vars returns all variables the factor touches (head first).
func (f Factor) Vars() []int32 {
	out := make([]int32, 0, 1+len(f.Body))
	out = append(out, f.Head)
	return append(out, f.Body...)
}

// Satisfied evaluates a factor's clause under an assignment: false only
// when the body is fully true and the head false (clause semantics);
// singleton factors are satisfied when the fact itself is true.
func (f Factor) Satisfied(assign []bool) bool {
	for _, b := range f.Body {
		if !assign[b] {
			return true
		}
	}
	return assign[f.Head]
}

// Graph is a materialized ground factor graph, stored as flat
// pointer-free columns. Variables are graph-local indices 0..NumVars-1
// in TΠ row order; VarOf and FactID translate between them and the
// (possibly sparse, after constraint deletions) fact IDs of TΠ. Factors
// are indices 0..NumFactors-1 in TΦ row order.
type Graph struct {
	// ids[v] is variable v's fact ID. VarOf reads one of two indexes
	// over them. When the IDs span at most twice as many values as there
	// are variables — a whole TΠ, whose gaps are the facts constraint
	// passes deleted — dense[id-base] is the variable with that ID, -1
	// for none. Otherwise — a local graph over a few sparse global IDs —
	// VarOf binary-searches: byID lists the variables in increasing
	// fact-ID order, and stays nil when ids are already ascending (the
	// grounder's append-only guarantee), ids being searched themselves.
	ids   []int32
	dense []int32
	base  int32
	byID  []int32
	// bias[v] is the sum of v's unit-clause weights: its whole
	// conditional log-odds when no clause touches it.
	bias []float64

	// One entry per factor: head ← b1[, b2] with weight w, -1 marking an
	// absent body position (b1 < 0 is a unit clause; b2 >= 0 implies
	// b1 >= 0).
	head, b1, b2 []int32
	w            []float64

	// adj[off[v]:off[v+1]] lists the clause factors touching variable v,
	// each once even when v occupies two positions of it. Unit clauses
	// are not listed; bias carries them.
	off, adj []int32
	// sampled lists, ascending, the variables touching at least one
	// clause factor — the only ones whose value depends on another's.
	sampled []int32
	// comp[v] labels v's connected component in the Markov graph (two
	// variables are adjacent when a clause touches both), -1 when no
	// clause touches v. The ncomp components are numbered by their
	// smallest variable, so the labelling depends on nothing but which
	// variables share clauses: distinct components share no factor, and
	// the MLN's distribution is the product of theirs.
	comp  []int32
	ncomp int
}

// FromTables builds a Graph from a grounding result's TΠ and TΦ tables.
// Fact IDs may be sparse (quality control deletes rows without
// renumbering); every factor must reference a present fact.
func FromTables(facts, factors *engine.Table) (*Graph, error) {
	n, nf := facts.NumRows(), factors.NumRows()
	g := newGraph(slices.Clone(facts.Int32Col(kb.TPiI)[:n]), nf)
	if err := g.indexIDs(); err != nil {
		return nil, err
	}

	i1s := factors.Int32Col(ground.TPhiI1)
	i2s := factors.Int32Col(ground.TPhiI2)
	i3s := factors.Int32Col(ground.TPhiI3)
	ws := factors.Float64Col(ground.TPhiW)
	for r := 0; r < nf; r++ {
		row := [3]int32{i1s[r], i2s[r], i3s[r]}
		for i, id := range row {
			if id == engine.NullInt32 {
				row[i] = -1
				continue
			}
			v, ok := g.VarOf(id)
			if !ok {
				return nil, fmt.Errorf("factor: factor row %d references unknown fact %d", r, id)
			}
			row[i] = v
		}
		if row[1] < 0 {
			row[1], row[2] = row[2], -1
		}
		g.addFactor(row[0], row[1], row[2], ws[r])
	}
	g.buildAdjacency()
	return g, nil
}

// newGraph returns a graph over the given fact IDs with room for nf
// factors; the caller adds them with addFactor and then calls
// buildAdjacency.
func newGraph(ids []int32, nf int) *Graph {
	return &Graph{
		ids:  ids,
		bias: make([]float64, len(ids)),
		head: make([]int32, 0, nf),
		b1:   make([]int32, 0, nf),
		b2:   make([]int32, 0, nf),
		w:    make([]float64, 0, nf),
		off:  make([]int32, len(ids)+1),
	}
}

// addFactor appends one factor over graph variables (-1 for an absent
// body position, b1 filled before b2). A unit clause folds into its
// variable's bias; a clause is counted, in off[v+1], against each
// distinct variable it touches.
func (g *Graph) addFactor(head, b1, b2 int32, w float64) {
	f := int32(len(g.head))
	g.head, g.b1, g.b2, g.w = append(g.head, head), append(g.b1, b1), append(g.b2, b2), append(g.w, w)
	if b1 < 0 {
		g.bias[head] += w
		return
	}
	vars, k := g.clauseVars(f)
	for _, v := range vars[:k] {
		g.off[v+1]++
	}
}

// indexIDs checks the fact IDs for duplicates and builds the index VarOf
// reads (see Graph.ids).
func (g *Graph) indexIDs() error {
	if len(g.ids) == 0 {
		return nil
	}
	lo, hi := slices.Min(g.ids), slices.Max(g.ids)
	if span := int64(hi) - int64(lo) + 1; span <= 2*int64(len(g.ids)) {
		g.base, g.dense = lo, make([]int32, span)
		for i := range g.dense {
			g.dense[i] = -1
		}
		for v, id := range g.ids {
			if g.dense[id-lo] >= 0 {
				return fmt.Errorf("factor: duplicate fact ID %d", id)
			}
			g.dense[id-lo] = int32(v)
		}
		return nil
	}
	ascending := true
	for v := 1; v < len(g.ids); v++ {
		if g.ids[v] <= g.ids[v-1] {
			ascending = false
			break
		}
	}
	if ascending {
		return nil
	}
	g.byID = make([]int32, len(g.ids))
	for v := range g.byID {
		g.byID[v] = int32(v)
	}
	slices.SortFunc(g.byID, func(a, b int32) int { return int(g.ids[a]) - int(g.ids[b]) })
	for i := 1; i < len(g.byID); i++ {
		if id := g.ids[g.byID[i]]; id == g.ids[g.byID[i-1]] {
			return fmt.Errorf("factor: duplicate fact ID %d", id)
		}
	}
	return nil
}

// clauseVars returns the distinct variables of factor f (head first)
// and how many there are.
func (g *Graph) clauseVars(f int32) ([3]int32, int) {
	vars := [3]int32{g.head[f]}
	k := 1
	if b := g.b1[f]; b >= 0 && b != vars[0] {
		vars[k] = b
		k++
	}
	if b := g.b2[f]; b >= 0 && b != vars[0] && b != g.b1[f] {
		vars[k] = b
		k++
	}
	return vars, k
}

// buildAdjacency turns the per-variable clause counts left in off[v+1]
// into the CSR offsets, fills adj, and derives the sampled list and the
// component labels.
func (g *Graph) buildAdjacency() {
	n := len(g.ids)
	for v := 0; v < n; v++ {
		if g.off[v+1] > 0 {
			g.sampled = append(g.sampled, int32(v))
		}
		g.off[v+1] += g.off[v]
	}
	g.adj = make([]int32, g.off[n])
	// Fill through a moving cursor per variable: off[v] is advanced to
	// the end of v's list, then shifted back one slot.
	for f := range g.head {
		if g.b1[f] < 0 {
			continue
		}
		vars, k := g.clauseVars(int32(f))
		for _, v := range vars[:k] {
			g.adj[g.off[v]] = int32(f)
			g.off[v]++
		}
	}
	copy(g.off[1:], g.off[:n])
	g.off[0] = 0
	g.labelComponents()
}

// labelComponents fills comp and ncomp by union-find over the clause
// columns. comp first holds the forest — a parent is always the smaller
// index, so a tree's root is its smallest variable — and is then turned
// into labels in place: ascending, every entry below v already holds its
// final label while v's own still holds its parent.
func (g *Graph) labelComponents() {
	p := make([]int32, len(g.ids))
	for v := range p {
		p[v] = int32(v)
	}
	find := func(v int32) int32 {
		for p[v] != v {
			p[v] = p[p[v]] // path halving
			v = p[v]
		}
		return v
	}
	for f, b := range g.b1 {
		if b < 0 {
			continue
		}
		vars, k := g.clauseVars(int32(f))
		for _, v := range vars[1:k] {
			if a, b := find(vars[0]), find(v); a < b {
				p[b] = a
			} else {
				p[a] = b
			}
		}
	}
	g.ncomp = 0
	for v, parent := range p {
		switch {
		case g.off[v] == g.off[v+1]:
			p[v] = -1
		case parent == int32(v):
			p[v] = int32(g.ncomp)
			g.ncomp++
		default:
			p[v] = p[parent]
		}
	}
	g.comp = p
}

// VarOf translates a fact ID to its graph variable index.
func (g *Graph) VarOf(factID int32) (int32, bool) {
	if g.dense != nil {
		i := int64(factID) - int64(g.base)
		if i < 0 || i >= int64(len(g.dense)) || g.dense[i] < 0 {
			return 0, false
		}
		return g.dense[i], true
	}
	if g.byID == nil {
		v, ok := slices.BinarySearch(g.ids, factID)
		return int32(v), ok
	}
	i, ok := slices.BinarySearchFunc(g.byID, factID, func(v, id int32) int { return int(g.ids[v]) - int(id) })
	if !ok {
		return 0, false
	}
	return g.byID[i], true
}

// FactID translates a graph variable index back to its fact ID.
func (g *Graph) FactID(v int32) int32 { return g.ids[v] }

// FromResult builds a Graph straight from a grounding result.
func FromResult(res *ground.Result) (*Graph, error) {
	if res.Factors == nil {
		return nil, fmt.Errorf("factor: grounding result has no factor table (SkipFactors?)")
	}
	return FromTables(res.Facts, res.Factors)
}

// NumVars returns the number of variables (rows of TΠ).
func (g *Graph) NumVars() int { return len(g.ids) }

// NumFactors returns the number of factors (rows of TΦ).
func (g *Graph) NumFactors() int { return len(g.head) }

// Clause returns factor f's columns: head ← b1[, b2] with weight w, -1
// for an absent body position (b1 < 0: a unit clause).
func (g *Graph) Clause(f int32) (head, b1, b2 int32, w float64) {
	return g.head[f], g.b1[f], g.b2[f], g.w[f]
}

// Factor materializes factor i.
func (g *Graph) Factor(i int) Factor {
	f := Factor{Head: g.head[i], W: g.w[i]}
	if g.b1[i] >= 0 {
		f.Body = append(f.Body, g.b1[i])
	}
	if g.b2[i] >= 0 {
		f.Body = append(f.Body, g.b2[i])
	}
	return f
}

// FactorsOf returns the indices of the clause factors touching variable
// v, each listed once. The slice aliases the graph; do not modify it.
func (g *Graph) FactorsOf(v int32) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// Bias returns the summed weight of v's unit clauses: with FactorsOf(v)
// empty, v is independent of every other variable and P(v=1) is exactly
// σ(Bias(v)).
func (g *Graph) Bias(v int32) float64 { return g.bias[v] }

// Sampled returns, ascending, the variables touching at least one clause
// factor. Every other variable's marginal is closed-form (see Bias).
// The slice aliases the graph; do not modify it.
func (g *Graph) Sampled() []int32 { return g.sampled }

// Component returns the label of v's connected component, in
// [0, NumComponents()), or -1 when no clause touches v. Components are
// numbered by their smallest variable.
func (g *Graph) Component(v int32) int32 { return g.comp[v] }

// NumComponents returns the number of connected components among the
// sampled variables.
func (g *Graph) NumComponents() int { return g.ncomp }

// Components groups Sampled() by component: component c's variables,
// ascending, are vars[off[c]:off[c+1]]. Both slices are freshly
// allocated; the graph keeps only the per-variable labels.
func (g *Graph) Components() (off, vars []int32) {
	off = make([]int32, g.ncomp+1)
	for _, v := range g.sampled {
		off[g.comp[v]+1]++
	}
	for c := 0; c < g.ncomp; c++ {
		off[c+1] += off[c]
	}
	vars = make([]int32, len(g.sampled))
	next := slices.Clone(off[:g.ncomp])
	for _, v := range g.sampled {
		c := g.comp[v]
		vars[next[c]] = v
		next[c]++
	}
	return off, vars
}

// Satisfied evaluates factor i under an assignment, with Factor.Satisfied's
// semantics, straight from the columns.
func (g *Graph) Satisfied(i int, assign []bool) bool {
	if b := g.b1[i]; b >= 0 && !assign[b] {
		return true
	}
	if b := g.b2[i]; b >= 0 && !assign[b] {
		return true
	}
	return assign[g.head[i]]
}

// LogScore returns the assignment's unnormalized log probability
// Σ w_i · n_i(x) over all factors (equation (4) of the paper).
func (g *Graph) LogScore(assign []bool) float64 {
	var s float64
	for i, w := range g.w {
		if g.Satisfied(i, assign) {
			s += w
		}
	}
	return s
}

// Neighbors returns, ascending, the distinct variables sharing a factor
// with v (its Markov blanket), excluding v itself.
func (g *Graph) Neighbors(v int32) []int32 {
	var out []int32
	for _, f := range g.FactorsOf(v) {
		vars, k := g.clauseVars(f)
		for _, u := range vars[:k] {
			if u != v {
				out = append(out, u)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Lineage returns the derivation factors of variable v: the non-singleton
// factors whose head is v, each one a rule application that produced the
// fact.
func (g *Graph) Lineage(v int32) []Factor {
	var out []Factor
	for _, f := range g.FactorsOf(v) {
		if g.head[f] == v {
			out = append(out, g.Factor(int(f)))
		}
	}
	return out
}

// Explain renders the proof tree of variable v down to the given depth,
// naming facts through the provided renderer. Facts with no derivations
// print as base extractions.
func (g *Graph) Explain(v int32, depth int, name func(int32) string) string {
	var b strings.Builder
	g.explain(&b, v, depth, 0, name)
	return b.String()
}

func (g *Graph) explain(b *strings.Builder, v int32, depth, indent int, name func(int32) string) {
	pad := strings.Repeat("  ", indent)
	derivs := g.Lineage(v)
	if len(derivs) == 0 || depth == 0 {
		fmt.Fprintf(b, "%s%s\n", pad, name(v))
		return
	}
	fmt.Fprintf(b, "%s%s, derived by %d rule application(s):\n", pad, name(v), len(derivs))
	for _, f := range derivs {
		fmt.Fprintf(b, "%s<- (w=%.2f)\n", pad+"  ", f.W)
		for _, u := range f.Body {
			g.explain(b, u, depth-1, indent+2, name)
		}
	}
}

// Stats summarizes the graph for reports.
type Stats struct {
	Vars       int
	Factors    int
	Singletons int
	// MaxDegree and AvgDegree count every factor on a variable, unit
	// clauses included.
	MaxDegree int
	AvgDegree float64
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	st := Stats{Vars: g.NumVars(), Factors: g.NumFactors()}
	deg := make([]int32, g.NumVars())
	for v := range deg {
		deg[v] = g.off[v+1] - g.off[v]
	}
	for f, b := range g.b1 {
		if b < 0 {
			st.Singletons++
			deg[g.head[f]]++
		}
	}
	total := 0
	for _, d := range deg {
		total += int(d)
		st.MaxDegree = max(st.MaxDegree, int(d))
	}
	if st.Vars > 0 {
		st.AvgDegree = float64(total) / float64(st.Vars)
	}
	return st
}
