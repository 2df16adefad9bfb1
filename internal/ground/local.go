package ground

import (
	"context"
	"fmt"
	"slices"
	"time"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
	"probkb/internal/obs"
)

// DefaultLocalDepth is the proof-depth bound a LocalQuery with Depth 0
// gets: deep enough for the chained derivations the paper's rule sets
// produce, shallow enough that the local closure stays small.
const DefaultLocalDepth = 3

// LocalQuery asks for the local proof graph of one atom Rel(X, Y),
// everything dictionary-encoded (the caller resolves names read-only so
// concurrent queries never mutate the KB's dictionaries).
type LocalQuery struct {
	Rel  int32
	X, Y int32
	// Depth bounds the proof: only rules within Depth hops of Rel in
	// the clause-incidence graph participate, and the closure loop
	// runs at most Depth iterations. 0 means DefaultLocalDepth.
	Depth int
	// Radius bounds the evidence: base facts whose entities lie within
	// Radius hops of {X, Y} in the fact graph seed the grounding. 0
	// means Depth+1. Like Depth it trades completeness for locality;
	// both generous yields the full proof graph of the atom.
	Radius int
}

// LocalResult is a local grounding: a self-contained Result over the
// seed facts (original fact IDs preserved; locally derived facts get
// fresh IDs past the seed's maximum) plus the query bookkeeping.
type LocalResult struct {
	*Result
	// RulesReachable counts the rules backward-reachable from the query
	// relation within the depth bound.
	RulesReachable int
	// SeedFacts counts the base facts the entity ball contributed.
	SeedFacts int
	// TargetRows lists the rows of Facts matching (Rel, X, Y) — entity
	// classes are not constrained, so one atom may match several typed
	// facts. Empty when the atom is neither observed nor derivable
	// within the bounds.
	TargetRows []int
}

// LocalGrounder grounds query-local proof graphs: the ProPPR-style
// alternative to the global fixpoint, for "what is P(fact)?" lookups
// that cannot afford full-KB cost. Built once per fact set, it indexes
// the base evidence by entity; each Ground call then selects the rules
// reachable from the query relation, collects the base facts around
// the query entities, and runs the ordinary batched closure + factor
// phases (Algorithm 1) over just that slice.
//
// A LocalGrounder is immutable after construction and safe for
// concurrent Ground calls: every query grounds into its own tables.
type LocalGrounder struct {
	clauses []mln.Clause
	// The clause-incidence graph rule selection walks, CSR-style: the
	// indices of the clauses mentioning relation r (head or body) are
	// relClauses[relStart[r]:relStart[r+1]], ascending. It spans every
	// relation ID the rules or the evidence use, so per-query relation
	// sets are dense slices of its length.
	relStart, relClauses []int32
	// The evidence is the first evidence rows of facts (TΠ-shaped,
	// weights included). byX and byY list, per entity, the rows of facts
	// holding it as subject and as object, ascending; they may cover rows
	// past the evidence, which a lookup skips.
	facts    *engine.Table
	evidence int
	byX, byY *engine.EntityIndex
	opts     Options
}

// NewLocal indexes the rule set and a TΠ-shaped evidence table for
// local grounding. The table is captured by reference and must not be
// mutated afterwards. Options supply Workers and SemiNaive; per-call
// knobs (context, iteration cap) come from the LocalQuery.
func NewLocal(rules []mln.Clause, base *engine.Table, opts Options) *LocalGrounder {
	return newLocal(rules, base, base.NumRows(),
		engine.NewEntityIndex(base, kb.TPiX), engine.NewEntityIndex(base, kb.TPiY), opts)
}

// NewLocalFor is NewLocal over the evidence of a grounding result: the
// facts it did not derive. Fact IDs ascend with the row index and the
// derived ones are those from FirstDerived on, so the evidence is a
// prefix of res.Facts, which the grounder reads in place; res.Facts
// must not be mutated afterwards but for its weights. A result an Extend
// published its fact index on lends the grounder that index's entity
// columns; any other gets two built here over the prefix.
func NewLocalFor(rules []mln.Clause, res *Result, opts Options) *LocalGrounder {
	t := res.Facts
	n, _ := slices.BinarySearch(t.Int32Col(kb.TPiI), res.FirstDerived)
	if ix := res.index; ix != nil {
		return newLocal(rules, t, n, ix.byX, ix.byY, opts)
	}
	i32 := func(c int) []int32 { return t.Int32Col(c)[:n:n] }
	base := engine.TableFromColumns("T_base", kb.FactsSchema(), i32(kb.TPiI), i32(kb.TPiR),
		i32(kb.TPiX), i32(kb.TPiC1), i32(kb.TPiY), i32(kb.TPiC2), t.Float64Col(kb.TPiW)[:n:n])
	return NewLocal(rules, base, opts)
}

func newLocal(rules []mln.Clause, facts *engine.Table, evidence int, byX, byY *engine.EntityIndex, opts Options) *LocalGrounder {
	lg := &LocalGrounder{
		clauses:  rules,
		facts:    facts,
		evidence: evidence,
		byX:      byX,
		byY:      byY,
		opts:     opts,
	}
	nrels := int32(0)
	for _, r := range facts.Int32Col(kb.TPiR)[:evidence] {
		nrels = max(nrels, r+1)
	}
	for _, c := range rules {
		nrels = max(nrels, c.Head.Rel+1)
		for _, b := range c.Body {
			nrels = max(nrels, b.Rel+1)
		}
	}
	lg.relStart = make([]int32, nrels+1)
	for _, c := range rules {
		rs, n := clauseRels(c)
		for _, r := range rs[:n] {
			lg.relStart[r+1]++
		}
	}
	for r := range nrels {
		lg.relStart[r+1] += lg.relStart[r]
	}
	lg.relClauses = make([]int32, lg.relStart[nrels])
	fill := slices.Clone(lg.relStart[:nrels])
	for i, c := range rules {
		rs, n := clauseRels(c)
		for _, r := range rs[:n] {
			lg.relClauses[fill[r]] = int32(i)
			fill[r]++
		}
	}
	return lg
}

// clauseRels returns the distinct relations clause c mentions, the
// head's first, as rs[:n].
func clauseRels(c mln.Clause) (rs [3]int32, n int) {
	rs[0], n = c.Head.Rel, 1
next:
	for _, b := range c.Body {
		for _, r := range rs[:n] {
			if r == b.Rel {
				continue next
			}
		}
		rs[n] = b.Rel
		n++
	}
	return rs, n
}

// reachable selects the clauses within depth hops of rel in the
// clause-incidence graph (level 0 = clauses mentioning rel itself), in
// original rule order, plus the set of relations any of them mention —
// the only relations whose facts can participate locally. Backward
// edges (rel in a clause head) supply the atom's derivations; forward
// edges (rel in a body) supply the downstream factors the atom's
// marginal depends on — an MLN's factors are undirected, so both
// directions shape P(atom).
//
// The relation set comes back dense, indexed by relation ID.
func (lg *LocalGrounder) reachable(rel int32, depth int) ([]mln.Clause, []bool) {
	nrels := len(lg.relStart) - 1
	rels := make([]bool, max(nrels, int(rel)+1))
	rels[rel] = true
	selected := make([]bool, len(lg.clauses))
	nselected := 0
	frontier := []int32{rel}
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var next []int32
		visit := func(r int32) {
			if !rels[r] {
				rels[r] = true
				next = append(next, r)
			}
		}
		for _, r := range frontier {
			if int(r) >= nrels {
				continue // a relation no rule or fact mentions
			}
			for _, ci := range lg.relClauses[lg.relStart[r]:lg.relStart[r+1]] {
				if selected[ci] {
					continue
				}
				selected[ci] = true
				nselected++
				c := lg.clauses[ci]
				visit(c.Head.Rel)
				for _, b := range c.Body {
					visit(b.Rel)
				}
			}
		}
		frontier = next
	}
	out := make([]mln.Clause, 0, nselected)
	for ci, ok := range selected {
		if ok {
			out = append(out, lg.clauses[ci])
		}
	}
	return out, rels
}

// entityBall collects the evidence rows reachable from the query
// entities within radius hops of the fact graph, restricted to relations
// that can appear in a local proof (rels, indexed by relation ID). Rows
// come back sorted (deterministic seed tables).
func (lg *LocalGrounder) entityBall(x, y int32, radius int, rels []bool) []int32 {
	relCol := lg.facts.Int32Col(kb.TPiR)
	xs := lg.facts.Int32Col(kb.TPiX)
	ys := lg.facts.Int32Col(kb.TPiY)

	visited := map[int32]bool{x: true, y: true}
	// A row is met once from each of its entities inside the ball, and
	// twice from one it holds in both columns; the duplicates go after
	// sorting.
	var rows, partners []int32
	frontier := []int32{x, y}
	if y == x {
		frontier = frontier[:1]
	}
	for hop := 0; hop < radius && len(frontier) > 0; hop++ {
		var next []int32
		for _, e := range frontier {
			for _, ix := range [...]*engine.EntityIndex{lg.byX, lg.byY} {
				partners = ix.Lookup(e, partners[:0])
				for _, r := range partners {
					if int(r) >= lg.evidence {
						break // ascending: the rest are derived
					}
					if !rels[relCol[r]] {
						continue
					}
					rows = append(rows, r)
					other := xs[r]
					if other == e {
						other = ys[r]
					}
					if !visited[other] {
						visited[other] = true
						next = append(next, other)
					}
				}
			}
		}
		frontier = next
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// Ground grounds the query atom's local proof graph: restricted rule
// partitions, an entity-ball seed table, then the standard closure and
// factor phases capped at the depth bound. The result is self-contained
// — its fact IDs agree with the evidence table on seed rows and are
// fresh for locally derived facts — and never touches the global
// fixpoint or the shared evidence table.
func (lg *LocalGrounder) Ground(ctx context.Context, q LocalQuery) (*LocalResult, error) {
	depth := q.Depth
	if depth <= 0 {
		depth = DefaultLocalDepth
	}
	radius := q.Radius
	if radius <= 0 {
		radius = depth + 1
	}

	ctx, span := obs.StartSpan(ctx, "ground-local")
	defer span.End()

	loadStart := time.Now()
	clauses, rels := lg.reachable(q.Rel, depth)
	parts, err := mln.Build(clauses)
	if err != nil {
		// The clauses came from a validated rule set; a shape failure
		// here is a programming error, but surface it rather than panic.
		return nil, fmt.Errorf("ground: local partitions: %w", err)
	}
	seedRows := lg.entityBall(q.X, q.Y, radius, rels)
	tpi := engine.NewTable("T_local", kb.FactsSchema())
	tpi.AppendRowsFrom(lg.facts, seedRows)
	ix := newFactIndex(tpi)

	res := &Result{LoadTime: time.Since(loadStart)}

	opts := lg.opts
	opts.Ctx = ctx
	opts.MaxIterations = depth
	opts.ConstraintHook = nil
	opts.SkipFactors = false
	opts.Observer = nil
	opts.Journal = nil
	g := &BatchGrounder{parts: parts, opts: opts}
	out, err := g.groundFrom(g, tpi, ix, 0, res)
	if err != nil {
		return nil, err
	}

	lres := &LocalResult{Result: out, RulesReachable: len(clauses), SeedFacts: len(seedRows)}
	relCol := out.Facts.Int32Col(kb.TPiR)
	xs := out.Facts.Int32Col(kb.TPiX)
	ys := out.Facts.Int32Col(kb.TPiY)
	for r := 0; r < out.Facts.NumRows(); r++ {
		if relCol[r] == q.Rel && xs[r] == q.X && ys[r] == q.Y {
			lres.TargetRows = append(lres.TargetRows, r)
		}
	}
	span.SetAttr("rules", len(clauses))
	span.SetAttr("seed_facts", len(seedRows))
	span.SetAttr("local_facts", out.Facts.NumRows())
	return lres, nil
}
