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
	"cmp"
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
// are indices 0..NumFactors-1 in TΦ row order, but what inference reads
// — FactorsOf, Bias — does not depend on that order (buildAdjacency).
type Graph struct {
	// idIndex maps the variables' fact IDs back to the variables
	// (VarOf); ids[v] is variable v's fact ID.
	idIndex
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
	g := newGraph(slices.Clone(facts.Int32Col(kb.TPiI)[:facts.NumRows()]), factors.NumRows())
	if err := g.indexIDs(); err != nil {
		return nil, err
	}
	if err := g.addRows(factors, &g.idIndex, nil); err != nil {
		return nil, err
	}
	g.buildAdjacency()
	return g, nil
}

// addRows adds TΦ's rows to g in row order. rows resolves a fact ID to
// its TΠ row, and remap a TΠ row to g's variable: nil when g's variables
// are TΠ's rows, -1 for a row g leaves out. A factor naming a row g
// leaves out is skipped; the caller keeps or drops whole components, so
// such a factor names no row g keeps.
func (g *Graph) addRows(factors *engine.Table, rows *idIndex, remap []int32) error {
	i1s := factors.Int32Col(ground.TPhiI1)
	i2s := factors.Int32Col(ground.TPhiI2)
	i3s := factors.Int32Col(ground.TPhiI3)
	ws := factors.Float64Col(ground.TPhiW)
	for r := range factors.NumRows() {
		row := [3]int32{i1s[r], i2s[r], i3s[r]}
		for i, id := range row {
			if id == engine.NullInt32 {
				row[i] = -1
				continue
			}
			v := rows.lookup(id)
			if v < 0 {
				return unknownFact(r, id)
			}
			if remap != nil {
				v = remap[v]
			}
			if v < 0 {
				row[0] = -1
				break
			}
			row[i] = v
		}
		if row[0] < 0 {
			continue
		}
		if row[1] < 0 {
			row[1], row[2] = row[2], -1
		}
		g.addFactor(row[0], row[1], row[2], ws[r])
	}
	return nil
}

func unknownFact(row int, id int32) error {
	return fmt.Errorf("factor: factor row %d references unknown fact %d", row, id)
}

// newGraph returns a graph over the given fact IDs with room for nf
// factors; the caller adds them with addFactor and then calls
// buildAdjacency.
func newGraph(ids []int32, nf int) *Graph {
	return &Graph{
		idIndex: idIndex{ids: ids},
		bias:    make([]float64, len(ids)),
		head:    make([]int32, 0, nf),
		b1:      make([]int32, 0, nf),
		b2:      make([]int32, 0, nf),
		w:       make([]float64, 0, nf),
		off:     make([]int32, len(ids)+1),
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

// idIndex maps fact IDs to their positions in ids: a graph's
// variables, or TΠ's rows (Partition). lookup reads one of two indexes.
// When the IDs span at most twice as many values as there are IDs — a
// whole TΠ, whose gaps are the facts constraint passes deleted —
// dense[id-base] is the position of that ID, -1 for none. Otherwise — a
// graph over a few sparse IDs — lookup binary-searches: byID lists the
// positions in increasing fact-ID order, and stays nil when ids are
// already ascending (the grounder's append-only guarantee), ids being
// searched themselves.
type idIndex struct {
	ids   []int32
	dense []int32
	base  int32
	byID  []int32
}

// indexIDs checks the fact IDs for duplicates and builds the index
// lookup reads.
func (x *idIndex) indexIDs() error {
	if len(x.ids) == 0 {
		return nil
	}
	lo, hi := slices.Min(x.ids), slices.Max(x.ids)
	if span := int64(hi) - int64(lo) + 1; span <= 2*int64(len(x.ids)) {
		x.base, x.dense = lo, make([]int32, span)
		for i := range x.dense {
			x.dense[i] = -1
		}
		for v, id := range x.ids {
			if x.dense[id-lo] >= 0 {
				return fmt.Errorf("factor: duplicate fact ID %d", id)
			}
			x.dense[id-lo] = int32(v)
		}
		return nil
	}
	ascending := true
	for v := 1; v < len(x.ids); v++ {
		if x.ids[v] <= x.ids[v-1] {
			ascending = false
			break
		}
	}
	if ascending {
		return nil
	}
	x.byID = make([]int32, len(x.ids))
	for v := range x.byID {
		x.byID[v] = int32(v)
	}
	slices.SortFunc(x.byID, func(a, b int32) int { return int(x.ids[a]) - int(x.ids[b]) })
	for i := 1; i < len(x.byID); i++ {
		if id := x.ids[x.byID[i]]; id == x.ids[x.byID[i-1]] {
			return fmt.Errorf("factor: duplicate fact ID %d", id)
		}
	}
	return nil
}

// lookup returns the position of the given fact ID in ids, -1 for none.
// An ID below base wraps to an index past the dense span: int32 IDs
// cannot wrap back into it.
func (x *idIndex) lookup(factID int32) int32 {
	if i := int(uint32(factID - x.base)); i < len(x.dense) {
		return x.dense[i]
	}
	return x.search(factID)
}

// search is lookup outside the dense index's span.
func (x *idIndex) search(factID int32) int32 {
	if x.dense != nil {
		return -1
	}
	if x.byID == nil {
		if v, ok := slices.BinarySearch(x.ids, factID); ok {
			return int32(v)
		}
		return -1
	}
	if i, ok := slices.BinarySearchFunc(x.byID, factID, func(v, id int32) int { return int(x.ids[v]) - int(id) }); ok {
		return x.byID[i]
	}
	return -1
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
//
// Each variable's clause list is ordered by content — (head, b2, b1, w),
// Query 2's own key within a partition — not by factor index, so every
// sum inference makes over it is the same whatever order TΦ's rows came
// in: TΦ is a bag (DESIGN.md §5). Clauses equal on the key are equal, and
// their order is invisible. Bias needs no such step: a grounded TΦ holds
// one unit clause per observed fact, and a sum of at most two terms
// (0 + w, then + w') does not depend on their order.
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
	for v, lo := range g.off[:n] {
		if hi := g.off[v+1]; hi-lo > 1 {
			slices.SortFunc(g.adj[lo:hi], g.byContent)
		}
	}
	g.labelComponents()
}

// byContent orders clause factors by (head, b2, b1, w).
func (g *Graph) byContent(a, b int32) int {
	return cmp.Or(cmp.Compare(g.head[a], g.head[b]), cmp.Compare(g.b2[a], g.b2[b]),
		cmp.Compare(g.b1[a], g.b1[b]), cmp.Compare(g.w[a], g.w[b]))
}

// labelComponents fills comp and ncomp by union-find over the clause
// columns, then turns the forest into labels in place: ascending, every
// entry below v already holds its final label while v's own still holds
// its parent, which is smaller (see forest).
func (g *Graph) labelComponents() {
	p := newForest(len(g.ids))
	for f, b := range g.b1 {
		if b < 0 {
			continue
		}
		vars, k := g.clauseVars(int32(f))
		for _, v := range vars[1:k] {
			p.union(vars[0], v)
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

// forest is a union-find over 0..len-1 in which a parent is always the
// smaller index, so a tree's root is its smallest member and one
// ascending pass can resolve every entry from the entries before it.
type forest []int32

func newForest(n int) forest {
	p := make(forest, n)
	for v := range p {
		p[v] = int32(v)
	}
	return p
}

func (p forest) find(v int32) int32 {
	for p[v] != v {
		p[v] = p[p[v]] // path halving
		v = p[v]
	}
	return v
}

func (p forest) union(a, b int32) {
	if a, b = p.find(a), p.find(b); a < b {
		p[b] = a
	} else {
		p[a] = b
	}
}

// VarOf translates a fact ID to its graph variable index.
func (g *Graph) VarOf(factID int32) (int32, bool) {
	v := g.lookup(factID)
	return v, v >= 0
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
// print as base extractions. Derivations are cyclic, so each fact's are
// expanded at most once per call, at its first occurrence in depth-first
// order: a later occurrence prints as a leaf marked "(see above)", one on
// the path from the root to itself as a leaf marked "(cycle)". The text
// is therefore bounded by the size of v's lineage whatever the depth.
func (g *Graph) Explain(v int32, depth int, name func(int32) string) string {
	var b strings.Builder
	g.explain(&b, v, depth, 0, name, map[int32]bool{})
	return b.String()
}

// explain prints v's subtree. seen[u] is true while u's derivations are
// being printed and false once they have been.
func (g *Graph) explain(b *strings.Builder, v int32, depth, indent int, name func(int32) string, seen map[int32]bool) {
	pad := strings.Repeat("  ", indent)
	derivs := g.Lineage(v)
	if len(derivs) == 0 || depth == 0 {
		fmt.Fprintf(b, "%s%s\n", pad, name(v))
		return
	}
	if onPath, ok := seen[v]; ok {
		mark := "(see above)"
		if onPath {
			mark = "(cycle)"
		}
		fmt.Fprintf(b, "%s%s %s\n", pad, name(v), mark)
		return
	}
	seen[v] = true
	fmt.Fprintf(b, "%s%s, derived by %d rule application(s):\n", pad, name(v), len(derivs))
	for _, f := range derivs {
		fmt.Fprintf(b, "%s<- (w=%.2f)\n", pad+"  ", f.W)
		for _, u := range f.Body {
			g.explain(b, u, depth-1, indent+2, name, seen)
		}
	}
	seen[v] = false
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
