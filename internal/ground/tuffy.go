package ground

import (
	"context"
	"fmt"
	"time"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
	"probkb/internal/obs"
	"probkb/internal/obs/journal"
)

// TuffyGrounder re-implements the Tuffy-T baseline of Section 6.1: one
// table per relation, one join query per rule, one insertion per rule.
// Its output is semantically identical to the batch grounder's; the
// difference is purely the query plan — O(n) queries per iteration for n
// rules instead of O(k) for k partitions. It is a backend of the batch
// grounder's closure loop, supplying its own plans and tables.
type TuffyGrounder struct {
	// batch runs the closure loop, naive whatever the options say: Tuffy-T
	// re-joins every rule against all of TΠ each iteration. It states no
	// plans of its own, so it holds no MLN partitions.
	batch *BatchGrounder
	// part is each rule's partition, which labels its queries.
	part []int

	tpi       *engine.Table
	ix        *factIndex
	relTables map[int32]*engine.Table
	// scattered is how many master rows the relation tables already
	// hold; rows beyond it are copied in incrementally.
	scattered int
}

// NewTuffy prepares a Tuffy-T grounder for the KB.
func NewTuffy(k *kb.KB, opts Options) (*TuffyGrounder, error) {
	part := make([]int, len(k.Rules))
	for i, c := range k.Rules {
		p, err := c.Partition()
		if err != nil {
			return nil, fmt.Errorf("ground: rule %d: %w", i, err)
		}
		part[i] = p
	}
	opts.SemiNaive = false
	return &TuffyGrounder{batch: &BatchGrounder{kb: k, opts: opts}, part: part}, nil
}

// load bulkloads the facts tpi, indexed by ix: the master table plus one
// predicate table per relation name. The per-relation copies are what
// make Tuffy's bulkload two to three orders of magnitude slower on KBs
// with many relations (Table 3, "Load" row).
func (g *TuffyGrounder) load(tpi *engine.Table, ix *factIndex) {
	k := g.batch.kb
	g.tpi, g.ix = tpi, ix
	g.relTables = make(map[int32]*engine.Table, k.RelDict.Len())
	// Every relation gets its own (initially empty) table, mirroring
	// Tuffy's per-predicate schema creation.
	for id := int32(0); id < int32(k.RelDict.Len()); id++ {
		g.relTables[id] = engine.NewTable("pred_"+k.RelDict.Name(id), kb.FactsSchema())
	}
	g.scatter(0)
}

// scatter copies rows [from, NumRows) of the master table into the
// per-relation tables.
func (g *TuffyGrounder) scatter(from int) {
	rels := g.tpi.Int32Col(kb.TPiR)
	perRel := make(map[int32][]int32)
	for r := from; r < g.tpi.NumRows(); r++ {
		perRel[rels[r]] = append(perRel[rels[r]], int32(r))
	}
	for rel, rows := range perRel {
		g.relTables[rel].AppendRowsFrom(g.tpi, rows)
	}
	g.scattered = g.tpi.NumRows()
}

// Ground loads TΠ and its relation tables, then runs the closure loop and
// factor phase with one query per rule.
func (g *TuffyGrounder) Ground() (*Result, error) {
	loadStart := time.Now()
	_, loadSpan := obs.StartSpan(g.batch.opts.ctxOf(), "ground.load")
	g.load(loadFacts(g.batch.kb))
	loadSpan.SetAttr("relations", len(g.relTables))
	loadSpan.End()
	return g.batch.groundFrom(g, g.tpi, g.ix, 0, &Result{LoadTime: time.Since(loadStart)})
}

// atomsQueries is one inference query per rule over all of TΠ; Tuffy-T
// has no Δ.
func (g *TuffyGrounder) atomsQueries(_, _ *engine.Table, _ *factIndex) []partPlan {
	return g.rulePlans(g.ruleAtomsPlan)
}

// groundFactors is Tuffy-T's Query 2: one factor query per rule over
// all of TΠ, in rule order, whose clauses it appends to cols (bag union,
// Proposition 1). cols is sized once, for the clauses and the unit
// clauses that follow them.
func (g *TuffyGrounder) groundFactors(ctx context.Context, cols *factorCols, res *Result) error {
	qs := g.rulePlans(g.ruleFactorsPlan)
	outs := make([]*engine.Table, len(qs))
	n := observed(g.tpi)
	for i, q := range qs {
		// Cooperative cancellation: check between factor queries. The
		// grounded facts survive in the partial result; only the factor
		// table is incomplete.
		if err := ctx.Err(); err != nil {
			return err
		}
		out, err := g.batch.runFactors(g, q.p, q.plan, res)
		if err != nil {
			return err
		}
		outs[i] = out
		n += out.NumRows()
	}
	cols.grow(n)
	for _, out := range outs {
		cols.appendRows(out, out.NumRows())
	}
	return nil
}

// rulePlans builds one plan per rule, tagged with the rule's partition.
func (g *TuffyGrounder) rulePlans(build func(*mln.Clause) engine.Node) []partPlan {
	rules := g.batch.kb.Rules
	qs := make([]partPlan, len(rules))
	for i := range rules {
		qs[i] = partPlan{p: g.part[i], plan: build(&rules[i])}
	}
	return qs
}

// run executes a per-rule plan as built. Its profile is the zero one, so
// the journal records no per-rule plans: O(#rules) profiles per iteration
// would overflow the journal bound.
func (g *TuffyGrounder) run(phase string, plan engine.Node, _ bool) (*engine.Table, journal.QueryProfile, error) {
	engine.Configure(plan, engine.Opts{Workers: g.batch.opts.Workers})
	out, err := plan.Run()
	if err != nil {
		return nil, journal.QueryProfile{}, err
	}
	query := "tuffy-atoms"
	if phase == "factors" {
		query = "tuffy-factors"
	}
	engine.ObservePlan(query, plan)
	return out, journal.QueryProfile{}, nil
}

// factsChanged keeps the relation tables in step with the master: the
// rows the merge appended are copied in (Tuffy's insertion per rule); a
// constraint pass's deletions reload every table. When nothing will read
// them again the upkeep is skipped.
func (g *TuffyGrounder) factsChanged(st IterStats, feeds bool) error {
	switch {
	case !feeds:
	case st.Deleted > 0:
		for _, t := range g.relTables {
			t.Truncate()
		}
		g.scatter(0)
	case st.NewFacts > 0:
		g.scatter(g.scattered)
	}
	return nil
}

// classFilter returns a scan of the relation table for atom a, filtered
// to the clause's class constraints — Tuffy-T's typed predicate access.
func (g *TuffyGrounder) classFilter(c *mln.Clause, a mln.Atom) engine.Node {
	c1 := c.Class[a.Arg1]
	c2 := c.Class[a.Arg2]
	scan := engine.NewScan(g.relTables[a.Rel])
	return engine.NewFilter(scan, fmt.Sprintf("C1 = %d AND C2 = %d", c1, c2),
		func(t *engine.Table, r int) bool {
			return t.Int32Col(kb.TPiC1)[r] == c1 && t.Int32Col(kb.TPiC2)[r] == c2
		})
}

// ruleAtomsPlan builds the single-rule inference query: SELECT the head
// tuple from the (filtered, possibly self-joined) body tables.
func (g *TuffyGrounder) ruleAtomsPlan(c *mln.Clause) engine.Node {
	b0 := c.Body[0]
	if len(c.Body) == 1 {
		return engine.NewProject(g.classFilter(c, b0),
			engine.ConstI32Expr("R", c.Head.Rel),
			engine.ColExpr("x", tCol(b0, mln.X)),
			engine.ConstI32Expr("C1", c.Class[mln.X]),
			engine.ColExpr("y", tCol(b0, mln.Y)),
			engine.ConstI32Expr("C2", c.Class[mln.Y]),
		)
	}
	b1 := c.Body[1]
	j := engine.NewHashJoin(
		g.classFilter(c, b0), g.classFilter(c, b1),
		[]int{tCol(b0, mln.Z)}, []int{tCol(b1, mln.Z)},
		[]engine.JoinOut{
			engine.BuildCol("x", tCol(b0, mln.X)),
			engine.ProbeCol("y", tCol(b1, mln.Y)),
		},
		"T2.z = T3.z")
	return engine.NewProject(j,
		engine.ConstI32Expr("R", c.Head.Rel),
		engine.ColExpr("x", 0),
		engine.ConstI32Expr("C1", c.Class[mln.X]),
		engine.ColExpr("y", 1),
		engine.ConstI32Expr("C2", c.Class[mln.Y]),
	)
}

// ruleFactorsPlan builds the single-rule factor query, joining the head
// predicate table to resolve I1.
func (g *TuffyGrounder) ruleFactorsPlan(c *mln.Clause) engine.Node {
	b0 := c.Body[0]
	var bodyJoin engine.Node
	if len(c.Body) == 1 {
		// Body IDs plus head argument values: (I2, xv, yv).
		bodyJoin = engine.NewProject(g.classFilter(c, b0),
			engine.ColExpr("I2", kb.TPiI),
			engine.ColExpr("xv", tCol(b0, mln.X)),
			engine.ColExpr("yv", tCol(b0, mln.Y)),
			engine.ConstI32Expr("I3", engine.NullInt32),
		)
	} else {
		b1 := c.Body[1]
		bodyJoin = engine.NewHashJoin(
			g.classFilter(c, b0), g.classFilter(c, b1),
			[]int{tCol(b0, mln.Z)}, []int{tCol(b1, mln.Z)},
			[]engine.JoinOut{
				engine.BuildCol("I2", kb.TPiI),
				engine.BuildCol("xv", tCol(b0, mln.X)),
				engine.ProbeCol("yv", tCol(b1, mln.Y)),
				engine.ProbeCol("I3", kb.TPiI),
			},
			"T2.z = T3.z")
	}
	// Resolve I1 against the head predicate table (class-filtered).
	head := g.classFilter(c, c.Head)
	j := engine.NewHashJoin(bodyJoin, head,
		[]int{1, 2}, []int{kb.TPiX, kb.TPiY},
		[]engine.JoinOut{
			engine.ProbeCol("I1", kb.TPiI),
			engine.BuildCol("I2", 0),
			engine.BuildCol("I3", 3),
		},
		"head args")
	return engine.NewProject(j,
		engine.ColExpr("I1", 0),
		engine.ColExpr("I2", 1),
		engine.ColExpr("I3", 2),
		engine.ConstF64Expr("w", c.Weight),
	)
}
