package ground

import (
	"fmt"
	"time"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
	"probkb/internal/obs"
)

// TuffyGrounder re-implements the Tuffy-T baseline of Section 6.1: one
// table per relation, one join query per rule, one insertion per rule.
// Its output is semantically identical to the batch grounder's; the
// difference is purely the query plan — O(n) queries per iteration for n
// rules instead of O(k) for k partitions.
type TuffyGrounder struct {
	kb   *kb.KB
	opts Options

	tpi       *engine.Table
	ix        *factIndex
	relTables map[int32]*engine.Table
}

// NewTuffy prepares a Tuffy-T grounder for the KB.
func NewTuffy(k *kb.KB, opts Options) (*TuffyGrounder, error) {
	for i, c := range k.Rules {
		if _, err := c.Partition(); err != nil {
			return nil, fmt.Errorf("ground: rule %d: %w", i, err)
		}
	}
	return &TuffyGrounder{kb: k, opts: opts}, nil
}

// load bulkloads the facts tpi: the master table plus one predicate table
// per relation name. The per-relation copies are what make Tuffy's
// bulkload two to three orders of magnitude slower on KBs with many
// relations (Table 3, "Load" row).
func (g *TuffyGrounder) load(tpi *engine.Table) {
	g.tpi = tpi
	g.ix = newFactIndex(g.tpi)
	g.relTables = make(map[int32]*engine.Table, g.kb.RelDict.Len())
	// Every relation gets its own (initially empty) table, mirroring
	// Tuffy's per-predicate schema creation.
	for id := int32(0); id < int32(g.kb.RelDict.Len()); id++ {
		g.relTables[id] = engine.NewTable("pred_"+g.kb.RelDict.Name(id), kb.FactsSchema())
	}
	g.scatterFacts(0)
}

// scatterFacts copies rows [from, NumRows) of the master table into the
// per-relation tables.
func (g *TuffyGrounder) scatterFacts(from int) {
	rels := g.tpi.Int32Col(kb.TPiR)
	perRel := make(map[int32][]int32)
	for r := from; r < g.tpi.NumRows(); r++ {
		perRel[rels[r]] = append(perRel[rels[r]], int32(r))
	}
	for rel, rows := range perRel {
		g.relTables[rel].AppendRowsFrom(g.tpi, rows)
	}
}

// rebuildRelTables reloads every predicate table from the master table
// (needed after constraint deletions).
func (g *TuffyGrounder) rebuildRelTables() {
	for _, t := range g.relTables {
		t.Truncate()
	}
	g.scatterFacts(0)
}

// Ground runs the per-rule grounding loop.
func (g *TuffyGrounder) Ground() (*Result, error) {
	ctx, span := obs.StartSpan(g.opts.ctxOf(), "ground")
	defer span.End()
	span.SetAttr("grounder", "tuffy")
	res := &Result{}

	loadStart := time.Now()
	g.load(g.kb.FactsTable())
	res.LoadTime = time.Since(loadStart)
	res.BaseFacts = g.tpi.NumRows()

	atomStart := time.Now()
	atomsCtx, atomsSpan := obs.StartSpan(ctx, "ground.atoms")
	maxIters := g.opts.MaxIterations
	for iter := 1; maxIters == 0 || iter <= maxIters; iter++ {
		iterStart := time.Now()
		_, iterSpan := obs.StartSpan(atomsCtx, "iteration")
		st := IterStats{Iteration: iter}

		// One query per rule against this iteration's snapshot; results
		// collected and merged per rule, as Tuffy inserts per rule.
		snapshotLen := g.tpi.NumRows()
		nextMin := g.ix.next
		type ruleOut struct{ out *engine.Table }
		outs := make([]ruleOut, 0, len(g.kb.Rules))
		for i := range g.kb.Rules {
			plan := g.ruleAtomsPlan(&g.kb.Rules[i])
			out, err := plan.Run()
			if err != nil {
				iterSpan.End()
				atomsSpan.End()
				return nil, fmt.Errorf("ground: tuffy rule %d: %w", i, err)
			}
			engine.ObservePlan("tuffy-atoms", plan)
			st.Queries++
			outs = append(outs, ruleOut{out: out})
		}
		candRows := 0
		for _, ro := range outs {
			candRows += ro.out.NumRows()
			st.NewFacts += g.ix.merge(ro.out)
		}
		g.scatterFacts(snapshotLen)
		if g.opts.ConstraintHook != nil {
			st.Deleted = g.opts.ConstraintHook(g.tpi)
			if st.Deleted > 0 {
				g.ix.rebuild()
				g.rebuildRelTables()
			}
		}

		st.Elapsed = time.Since(iterStart)
		res.PerIteration = append(res.PerIteration, st)
		res.Iterations = iter
		res.AtomQueries += st.Queries
		observeIteration(st, candRows-st.NewFacts)
		iterSpan.SetAttr("iter", iter)
		iterSpan.SetAttr("new_facts", st.NewFacts)
		iterSpan.SetAttr("queries", st.Queries)
		iterSpan.End()
		// The Tuffy baseline journals iteration stats only; per-rule plan
		// profiles (O(#rules) per iteration) would blow the journal bound.
		emitIteration(g.opts.Journal, st)
		if g.opts.OnIteration != nil {
			g.opts.OnIteration(st)
		}
		// Same fixpoint rule as groundFrom: nothing appended survived.
		if !grewSince(g.tpi, nextMin) {
			res.Converged = true
			break
		}
	}
	res.AtomTime = time.Since(atomStart)
	res.Facts = g.tpi
	atomsSpan.SetAttr("iterations", res.Iterations)
	atomsSpan.End()

	if g.opts.SkipFactors {
		return res, nil
	}

	factorStart := time.Now()
	_, factorsSpan := obs.StartSpan(ctx, "ground.factors")
	defer factorsSpan.End()
	factors, err := g.groundFactors(res)
	if err != nil {
		return nil, err
	}
	res.Factors = factors
	res.FactorTime = time.Since(factorStart)
	factorsSpan.SetAttr("factors", res.Factors.NumRows())
	return res, nil
}

// groundFactors returns TΦ over the loaded facts: one factor query per
// rule, then the unit clauses, counted in res.FactorQueries.
func (g *TuffyGrounder) groundFactors(res *Result) (*engine.Table, error) {
	var factors factorCols
	for i := range g.kb.Rules {
		plan := g.ruleFactorsPlan(&g.kb.Rules[i])
		out, err := plan.Run()
		if err != nil {
			return nil, fmt.Errorf("ground: tuffy rule %d factors: %w", i, err)
		}
		engine.ObservePlan("tuffy-factors", plan)
		res.FactorQueries++
		factors.appendTable(out)
	}
	factors.appendUnits(g.tpi)
	res.FactorQueries++
	return factors.table(), nil
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
