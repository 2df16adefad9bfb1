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
	"probkb/internal/obs/journal"
)

// BatchGrounder is the ProbKB grounder: Algorithm 1 over the relational
// model, applying all rules of a partition with one multi-way join. It is
// also the backend that runs its plans on the single-node engine.
type BatchGrounder struct {
	kb    *kb.KB
	parts *mln.Partitions
	opts  Options
}

// NewBatch prepares a batch grounder for the KB.
func NewBatch(k *kb.KB, opts Options) (*BatchGrounder, error) {
	return newBatch(k, nil, opts)
}

// newBatch is NewBatch grounding with parts, the KB's MLN partitions
// when they are already built; nil builds them.
func newBatch(k *kb.KB, parts *mln.Partitions, opts Options) (*BatchGrounder, error) {
	if parts == nil {
		var err error
		if parts, err = k.MLNPartitions(); err != nil {
			return nil, fmt.Errorf("ground: partitioning rules: %w", err)
		}
	}
	return &BatchGrounder{kb: k, parts: parts, opts: opts}, nil
}

// Ground runs Algorithm 1 and returns the grounding result.
func (g *BatchGrounder) Ground() (*Result, error) {
	loadStart := time.Now()
	tpi, ix := loadFacts(g.kb)
	return g.groundFrom(g, tpi, ix, 0, &Result{LoadTime: time.Since(loadStart)})
}

// backend is what groundFrom's one closure loop and factor phase run
// through: it states the plans and executes them. The batch grounder is
// its own backend on the single-node engine; MPPGrounder lowers the
// batch plans onto a cluster holding distributed copies of TΠ and the
// MLN tables; TuffyGrounder states one plan per rule over its
// per-relation tables, and its own Query 2 (factorPhase).
type backend interface {
	// atomsQueries returns Query 1's plans over the derivations using a
	// fact of delta, the rows of tpi past a fact-ID watermark: delta is
	// tpi itself when no fact predates it. ix is the run's index over
	// tpi.
	atomsQueries(tpi, delta *engine.Table, ix *factIndex) []partPlan
	// run executes one grounding plan against the backend's copy of the
	// tables and returns its rows on the master, with the journal profile
	// of what actually ran: its query name and, when capture is set, its
	// executed operator tree. A profile with no query name is not
	// journaled. phase is "atoms" or "factors".
	run(phase string, plan engine.Node, capture bool) (*engine.Table, journal.QueryProfile, error)
	// factsChanged tells the backend an iteration grew TΠ by st.NewFacts
	// rows and deleted st.Deleted; feeds reports whether any plan will
	// read TΠ again.
	factsChanged(st IterStats, feeds bool) error
}

// partPlan is one grounding plan and the rule partition it grounds;
// leg is its place among atomsPlans' legs for the partition.
type partPlan struct {
	p, leg int
	plan   engine.Node
}

// atomsQueries returns Query 1-p for every non-empty partition in turn:
// atomsPlans' legs, the two-atom ones read through tix when it is
// non-nil.
func (g *BatchGrounder) atomsQueries(tpi, delta *engine.Table, tix *factIndex) []partPlan {
	active := g.parts.NonEmpty()
	qs := make([]partPlan, 0, 2*len(active))
	for _, p := range active {
		for leg, plan := range g.atomsPlans(p, tpi, delta, tix) {
			qs = append(qs, partPlan{p: p, leg: leg, plan: plan})
		}
	}
	return qs
}

// run executes a plan as built, on the tables it scans.
func (g *BatchGrounder) run(phase string, plan engine.Node, capture bool) (*engine.Table, journal.QueryProfile, error) {
	if phase == "atoms" {
		// Deduplicate in-plan, in parallel: it shrinks the serial merge.
		plan = engine.NewDistinct(plan, candidateKeyCols)
	}
	engine.Configure(plan, engine.Opts{Workers: g.opts.Workers})
	out, err := plan.Run()
	if err != nil {
		return nil, journal.QueryProfile{}, err
	}
	query := "ground-atoms"
	if phase == "factors" {
		query = "ground-factors"
	}
	engine.ObservePlan(query, plan)
	prof := journal.QueryProfile{Query: query}
	if capture {
		prof.Plan = journal.Capture[engine.Node](plan)
	}
	return out, prof, nil
}

func (*BatchGrounder) factsChanged(IterStats, bool) error { return nil }

// groundFrom runs the closure loop and factor phase over an existing
// facts table with the plans be states and executes. Every run is a Δ
// round: its first iteration's Δ is the rows it was handed, those with a
// fact ID at or above deltaMin — all of TΠ for a fresh run (0), the new
// facts for an Extend. Each later iteration's Δ is what the one before
// appended under semi-naive evaluation, and all of TΠ under naive.
//
// The delta is tracked by fact ID, not row offset: IDs are assigned
// monotonically by the fact index and never reused along a lineage, so
// constraint-hook deletions — which shift rows but leave surviving IDs
// intact — cannot corrupt the watermark. A deleted fact simply drops out
// of the next delta, and a re-derived one re-enters it under a fresh ID.
// The same ordering gives the fixpoint test: the loop ends with the first
// iteration after which TΠ's last row predates the iteration.
func (g *BatchGrounder) groundFrom(be backend, tpi *engine.Table, ix *factIndex, deltaMin int32, res *Result) (*Result, error) {
	ctx, span := obs.StartSpan(g.opts.ctxOf(), "ground")
	defer span.End()
	res.BaseFacts, res.FirstDerived = tpi.NumRows(), ix.next

	// Phase 1: transitive closure (groundAtoms until fixpoint or cap).
	atomStart := time.Now()
	atomsCtx, atomsSpan := obs.StartSpan(ctx, "ground.atoms")
	maxIters := g.opts.MaxIterations
	// deltaMin is the fact-ID watermark below which every derivation has
	// already been attempted.
	for iter := 1; maxIters == 0 || iter <= maxIters; iter++ {
		iterStart := time.Now()
		_, iterSpan := obs.StartSpan(atomsCtx, "iteration")
		// abort packages what grounding completed so far, so that a
		// cancelled run can hand back a usable PartialError instead of
		// discarding work.
		abort := func(err error) (*Result, error) {
			iterSpan.End()
			atomsSpan.End()
			res.Facts, res.next = tpi, ix.next
			res.AtomTime = time.Since(atomStart)
			return res, err
		}
		st := IterStats{Iteration: iter}

		// The rows the run was handed are the first iteration's Δ under
		// either order; after it, naive evaluation's Δ is all of TΠ.
		from := deltaMin
		if !g.opts.SemiNaive && iter > 1 {
			from = 0
		}
		delta := deltaRows(tpi, from)
		// IDs handed out from here on belong to this iteration's merge:
		// they form the next iteration's delta.
		nextMin := ix.next

		// Run every query against this iteration's snapshot of TΠ, then
		// merge (Algorithm 1 lines 3-5).
		qs := be.atomsQueries(tpi, delta, ix)
		candidates := make([]*engine.Table, 0, len(qs))
		for _, q := range qs {
			// Cooperative cancellation: check before every query.
			if err := atomsCtx.Err(); err != nil {
				return abort(err)
			}
			planStart := time.Now()
			out, prof, err := be.run("atoms", q.plan, g.opts.Journal != nil)
			if err != nil {
				return abort(fmt.Errorf("ground: partition %d atoms query: %w", q.p, err))
			}
			observePartition("atoms", q.p, time.Since(planStart))
			prof.Partition, prof.Iteration = q.p, iter
			g.opts.Journal.EmitProfile(prof)
			st.Queries++
			candidates = append(candidates, out)
		}
		candRows := 0
		for _, c := range candidates {
			candRows += c.NumRows()
			st.NewFacts += ix.merge(c)
		}
		// The constraint pass, then the index's upkeep after what it
		// deleted, each timed for the iteration's span.
		var passTime, upkeepTime time.Duration
		if g.opts.ConstraintHook != nil {
			passStart := time.Now()
			st.Deleted = g.opts.ConstraintHook(tpi)
			upkeepStart := time.Now()
			ix.followDeletion(g.opts.Workers)
			passTime, upkeepTime = upkeepStart.Sub(passStart), time.Since(upkeepStart)
		}
		// Removals don't invalidate the watermark: a deleted fact's ID
		// vanishes from the table (and thus from the next delta), and any
		// re-derivation re-enters under a fresh ID above nextMin.
		prevMin := deltaMin
		deltaMin = nextMin
		// The closure is complete when nothing this iteration appended is
		// still in TΠ: nothing was new, or the constraint pass took all of
		// it back. TΠ is read again by the next iteration or the factor
		// phase; a final iteration with no factor phase feeds nobody.
		fixpoint := !grewSince(tpi, nextMin)
		lastIter := fixpoint || (maxIters != 0 && iter == maxIters)
		if err := be.factsChanged(st, !lastIter || !g.opts.SkipFactors); err != nil {
			return abort(fmt.Errorf("ground: maintaining the backend's facts: %w", err))
		}

		st.Elapsed = time.Since(iterStart)
		res.PerIteration = append(res.PerIteration, st)
		res.Iterations = iter
		res.AtomQueries += st.Queries
		observeIteration(st, candRows-st.NewFacts)
		iterSpan.SetAttr("iter", iter)
		iterSpan.SetAttr("new_facts", st.NewFacts)
		iterSpan.SetAttr("deleted", st.Deleted)
		iterSpan.SetAttr("queries", st.Queries)
		if g.opts.ConstraintHook != nil {
			iterSpan.SetAttr("constraint_time", passTime.Round(time.Microsecond))
			iterSpan.SetAttr("index_time", upkeepTime.Round(time.Microsecond))
		}
		iterSpan.End()
		emitIteration(g.opts.Journal, st)
		if g.opts.Observer != nil {
			// prevMin reaches back over the rows this iteration joined as its
			// delta — on an Extend's first iteration, the facts it was given.
			assertAppendOnly(tpi, prevMin)
			g.opts.Observer(st, tpi)
		}
		if fixpoint {
			res.Converged = true
			break
		}
	}
	res.AtomTime = time.Since(atomStart)
	res.Facts, res.next = tpi, ix.next
	atomsSpan.SetAttr("iterations", res.Iterations)
	atomsSpan.SetAttr("facts", tpi.NumRows())
	atomsSpan.SetAttr("queries", res.AtomQueries)
	atomsSpan.End()
	span.SetAttr("base_facts", res.BaseFacts)
	span.SetAttr("inferred_facts", res.InferredFacts())

	if g.opts.SkipFactors {
		// res.tphi stays the TΦ the run continued from, for the next run
		// that grounds factors to maintain.
		return res, nil
	}
	return res, g.factorPhase(ctx, be, tpi, ix, res)
}

// factorPhase is Algorithm 1's groundFactors (lines 8-10): it sets
// res.Factors to TΦ over tpi — the clauses of Query 2, then one unit
// clause per observed fact — and res.tphi to what a later run continues
// from. A ProbKB backend maintains the TΦ the run continued from
// (res.tphi on entry, whichever backend computed it; none on a fresh run
// or a lineage that has skipped factors throughout) from the facts added
// since, reading TΠ through ix (deltafactors.go). Tuffy-T, the paper's
// baseline, runs its per-rule Query 2 over all of TΠ.
func (g *BatchGrounder) factorPhase(ctx context.Context, be backend, tpi *engine.Table, ix *factIndex, res *Result) error {
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "ground.factors")
	defer span.End()
	var (
		cols factorCols
		err  error
	)
	if tg, ok := be.(*TuffyGrounder); ok {
		err = tg.groundFactors(ctx, &cols, res)
	} else {
		err = g.maintainFactors(ctx, be, res.tphi, tpi, ix, &cols, res)
	}
	if err != nil {
		return err
	}
	clauses := cols.len()
	cols.appendUnits(tpi)
	res.FactorQueries++
	queriesTotal.With("factors").Add(int64(res.FactorQueries))
	res.Factors = cols.table()
	res.tphi = &factorState{tphi: res.Factors, clauses: clauses, watermark: ix.next, facts: tpi.NumRows()}
	res.FactorTime = time.Since(start)
	span.SetAttr("factors", res.Factors.NumRows())
	span.SetAttr("queries", res.FactorQueries)
	return nil
}

// runFactors runs one factor-phase plan of partition p, recording it as
// a factor query.
func (g *BatchGrounder) runFactors(be backend, p int, plan engine.Node, res *Result) (*engine.Table, error) {
	planStart := time.Now()
	out, prof, err := be.run("factors", plan, g.opts.Journal != nil)
	if err != nil {
		return nil, fmt.Errorf("ground: partition %d factors query: %w", p, err)
	}
	observePartition("factors", p, time.Since(planStart))
	prof.Partition = p
	g.opts.Journal.EmitProfile(prof)
	res.FactorQueries++
	return out, nil
}

// assertAppendOnly checks, over the rows with fact IDs at or above
// minID, the half of Options.Observer's guarantee that is this package's
// to break: IDs grow strictly with the row index. It walks back from the
// last row only as far as minID reaches — the delta, the whole table on
// a fresh run's first iteration. A violation is a grounder bug, and an
// observer trusting the guarantee would silently lose facts.
func assertAppendOnly(tpi *engine.Table, minID int32) {
	ids := tpi.Int32Col(kb.TPiI)
	for r := len(ids) - 1; r > 0 && ids[r] >= minID; r-- {
		if ids[r] <= ids[r-1] {
			panic(fmt.Sprintf("ground: fact IDs out of order at row %d of TΠ (%d after %d)", r, ids[r], ids[r-1]))
		}
	}
}

// grewSince reports whether tpi holds a row with a fact ID at or above
// minID. IDs grow with the row index, so the last row tells.
func grewSince(tpi *engine.Table, minID int32) bool {
	ids := tpi.Int32Col(kb.TPiI)
	return len(ids) > 0 && ids[len(ids)-1] >= minID
}

// deltaRows returns the rows of t whose fact ID is >= minID (the Δ
// input of a round): t itself when that is all of them, else a copy in a
// fresh table. Selecting by ID rather than row position keeps the delta
// exact across constraint deletions. IDs grow with the row index, so
// those rows are a suffix of t.
func deltaRows(t *engine.Table, minID int32) *engine.Table {
	ids := t.Int32Col(kb.TPiI)
	lo, _ := slices.BinarySearch(ids, minID)
	if lo == 0 {
		return t
	}
	out := engine.NewTable(t.Name()+"_delta", t.Schema())
	rows := make([]int32, len(ids)-lo)
	for i := range rows {
		rows[i] = int32(lo + i)
	}
	out.AppendRowsFrom(t, rows)
	return out
}

// atomsPlans returns the query plans for partition p over the
// derivations using a fact of delta: when no fact of tpi predates delta
// (a run's first iteration, a naive one), the one full join, Query 1-p;
// otherwise the Δ-joins (Δ for one-atom bodies; Δ⋈T and T⋈Δ for two-atom
// bodies, whose union covers every derivation using at least one new
// fact — Δ⋈Δ pairs appear in both and dedup in the merge). The
// maintained factor phase runs the same legs as its body legs
// (deltafactors.go).
//
// The two-atom legs have two physical forms. As hash joins (atomsPlan)
// each hashes or scans all of TΠ, which is what the MPP backend lowers.
// Given the run's index (tix), both start from Δ and read TΠ rows through
// its entity index by z, costing in proportion to the delta; each emits
// its rows in exactly the hash-join form's order, so the merge assigns
// the same fact IDs either way.
func (g *BatchGrounder) atomsPlans(p int, tpi, delta *engine.Table, tix *factIndex) []engine.Node {
	_, body := mln.Shape(p)
	if delta == tpi {
		return []engine.Node{g.atomsPlan(p, tpi, tpi)}
	}
	if len(body) == 1 {
		return []engine.Node{g.atomsPlan(p, delta, delta)}
	}
	if tix != nil {
		return []engine.Node{
			g.deltaFirstPlan(p, delta, tix),
			g.deltaSecondPlan(p, delta, tix),
		}
	}
	return []engine.Node{
		g.atomsPlan(p, delta, tpi),
		g.atomsPlan(p, tpi, delta),
	}
}

// atomsPlan builds Query 1-p: the body join of partition p, with the
// first body atom probing t2src and the second t3src (both the full table
// when no fact predates Δ), emitting (R, x, C1, y, C2, I2[, I3], w) per
// grounding of a clause body. The result is a bag: candidates
// deduplicate in the backend or the merge.
func (g *BatchGrounder) atomsPlan(p int, t2src, t3src *engine.Table) engine.Node {
	_, body := mln.Shape(p)
	j1 := g.firstAtomJoin(p, t2src)
	if len(body) == 1 {
		return j1
	}
	// J2: join the second body atom, matching z.
	b1 := body[1]
	return engine.NewHashJoin(j1, engine.NewScan(t3src),
		[]int{1, j1VarCol[b1.Arg1], j1VarCol[b1.Arg2], 6}, []int{kb.TPiR, kb.TPiC1, kb.TPiC2, tCol(b1, mln.Z)},
		secondAtomOuts(b1), g.parts.Table(p).Name()+".R3 = T3.R AND classes AND T2.z = T3.z")
}

// j1VarCol is the column holding each variable's class in a two-atom
// J1's output and in the Mi ⋈ Δ joins of deltaSecondPlan and headLeg.
var j1VarCol = map[mln.Var]int{mln.X: 2, mln.Y: 3, mln.Z: 4}

// firstAtomJoin is J1: Mi ⋈ T on partition p's first body atom's
// relation and classes, T being src. For a one-atom body it is the whole
// body join: R, x, C1, y, C2, I2, w. For a two-atom body it emits R1, R3,
// CX, CY, CZ, xv (value of x from the first body fact), zv (value of z),
// I2 (its fact ID), w.
func (g *BatchGrounder) firstAtomJoin(p int, src *engine.Table) engine.Node {
	m := g.parts.Table(p)
	lay := layoutOf(p)
	_, body := mln.Shape(p)
	b0 := body[0]
	var outs []engine.JoinOut
	if len(body) == 1 {
		outs = []engine.JoinOut{
			engine.BuildCol("R", lay.r1),
			engine.ProbeCol("x", tCol(b0, mln.X)),
			engine.BuildCol("C1", lay.class[mln.X]),
			engine.ProbeCol("y", tCol(b0, mln.Y)),
			engine.BuildCol("C2", lay.class[mln.Y]),
			engine.ProbeCol("I2", kb.TPiI),
			engine.BuildCol("w", lay.w),
		}
	} else {
		outs = []engine.JoinOut{
			engine.BuildCol("R1", lay.r1),
			engine.BuildCol("R3", lay.r3),
			engine.BuildCol("CX", lay.class[mln.X]),
			engine.BuildCol("CY", lay.class[mln.Y]),
			engine.BuildCol("CZ", lay.class[mln.Z]),
			engine.ProbeCol("xv", tCol(b0, mln.X)),
			engine.ProbeCol("zv", tCol(b0, mln.Z)),
			engine.ProbeCol("I2", kb.TPiI),
			engine.BuildCol("w", lay.w),
		}
	}
	return engine.NewHashJoin(engine.NewScan(m), engine.NewScan(src),
		[]int{lay.r2, lay.class[b0.Arg1], lay.class[b0.Arg2]}, []int{kb.TPiR, kb.TPiC1, kb.TPiC2}, outs,
		m.Name()+".R2 = T2.R AND classes")
}

// secondAtomOuts is the output (R, x, C1, y, C2, I2, I3, w) of J1 ⋈ T on
// the second body atom b1, with J1 the build (outer) side.
func secondAtomOuts(b1 mln.Atom) []engine.JoinOut {
	return []engine.JoinOut{
		engine.BuildCol("R", 0),
		engine.BuildCol("x", 5),
		engine.BuildCol("C1", 2),
		engine.ProbeCol("y", tCol(b1, mln.Y)),
		engine.BuildCol("C2", 3),
		engine.BuildCol("I2", 7),
		engine.ProbeCol("I3", kb.TPiI),
		engine.BuildCol("w", 8),
	}
}

// deltaFirstPlan is the Δ⋈T leg read through the entity index: J1 over Δ
// stays a small hash join, and each J1 row reads the TΠ rows holding its
// z in the second atom's z column. The index join emits the hash join
// J1 ⋈ Scan(TΠ)'s pairs in its order — (TΠ row, J1 row).
func (g *BatchGrounder) deltaFirstPlan(p int, delta *engine.Table, tix *factIndex) engine.Node {
	m := g.parts.Table(p)
	_, body := mln.Shape(p)
	b1 := body[1]
	z := tCol(b1, mln.Z)
	return engine.NewIndexJoin(g.firstAtomJoin(p, delta), tix.on(z),
		[]int{6, 1, j1VarCol[b1.Arg1], j1VarCol[b1.Arg2]}, []int{z, kb.TPiR, kb.TPiC1, kb.TPiC2}, -1,
		secondAtomOuts(b1), m.Name()+".R3 = T3.R AND classes AND T2.z = T3.z")
}

// deltaSecondPlan is the T⋈Δ leg started from the delta: K1 = Mi ⋈ Δ on
// the second body atom, then each K1 row reads the TΠ rows holding its z
// in the first atom's z column. The hash-join form emits, per Δ row, its
// matches in (TΠ row, Mi row) order; the index join groups its output by
// the Δ row's fact ID to do the same — (Δ row, TΠ row, Mi row).
func (g *BatchGrounder) deltaSecondPlan(p int, delta *engine.Table, tix *factIndex) engine.Node {
	m := g.parts.Table(p)
	lay := layoutOf(p)
	_, body := mln.Shape(p)
	b0, b1 := body[0], body[1]
	// K1 output: R1, R2, CX, CY, CZ, zv, yv (values of z and y from the
	// Δ row), I3 (its fact ID), w.
	k1Outs := []engine.JoinOut{
		engine.BuildCol("R1", lay.r1),
		engine.BuildCol("R2", lay.r2),
		engine.BuildCol("CX", lay.class[mln.X]),
		engine.BuildCol("CY", lay.class[mln.Y]),
		engine.BuildCol("CZ", lay.class[mln.Z]),
		engine.ProbeCol("zv", tCol(b1, mln.Z)),
		engine.ProbeCol("yv", tCol(b1, mln.Y)),
		engine.ProbeCol("I3", kb.TPiI),
		engine.BuildCol("w", lay.w),
	}
	k1 := engine.NewHashJoin(engine.NewScan(m), engine.NewScan(delta),
		[]int{lay.r3, lay.class[b1.Arg1], lay.class[b1.Arg2]}, []int{kb.TPiR, kb.TPiC1, kb.TPiC2}, k1Outs,
		m.Name()+".R3 = T3.R AND classes")
	z := tCol(b0, mln.Z)
	outs := []engine.JoinOut{
		engine.BuildCol("R", 0),
		engine.ProbeCol("x", tCol(b0, mln.X)),
		engine.BuildCol("C1", 2),
		engine.BuildCol("y", 6),
		engine.BuildCol("C2", 3),
		engine.ProbeCol("I2", kb.TPiI),
		engine.BuildCol("I3", 7),
		engine.BuildCol("w", 8),
	}
	return engine.NewIndexJoin(k1, tix.on(z),
		[]int{5, 1, j1VarCol[b0.Arg1], j1VarCol[b0.Arg2]}, []int{z, kb.TPiR, kb.TPiC1, kb.TPiC2}, 7,
		outs, m.Name()+".R2 = T2.R AND classes AND T2.z = T3.z")
}

// factorCols accumulates TΦ column by column: the factor phase copies
// plan outputs and prior rows in without boxing a value per row.
type factorCols struct {
	i1, i2, i3 []int32
	w          []float64
}

func (c *factorCols) len() int { return len(c.i1) }

func (c *factorCols) add(i1, i2, i3 int32, w float64) {
	c.i1, c.i2, c.i3, c.w = append(c.i1, i1), append(c.i2, i2), append(c.i3, i3), append(c.w, w)
}

// appendRows appends the first n rows of t (schema FactorSchema).
func (c *factorCols) appendRows(t *engine.Table, n int) {
	c.i1 = append(c.i1, t.Int32Col(TPhiI1)[:n]...)
	c.i2 = append(c.i2, t.Int32Col(TPhiI2)[:n]...)
	c.i3 = append(c.i3, t.Int32Col(TPhiI3)[:n]...)
	c.w = append(c.w, t.Float64Col(TPhiW)[:n]...)
}

// appendUnits emits one size-1 factor per observed (non-NULL weight)
// fact: groundFactors(TΠ) in Algorithm 1 line 10. The factor phase has
// made room for them (observed); other callers grow as they append.
func (c *factorCols) appendUnits(tpi *engine.Table) {
	ids := tpi.Int32Col(kb.TPiI)
	ws := tpi.Float64Col(kb.TPiW)
	for r, w := range ws {
		if !engine.IsNullFloat64(w) {
			c.add(ids[r], engine.NullInt32, engine.NullInt32, w)
		}
	}
}

// observed counts TΠ's observed (non-NULL weight) facts.
func observed(tpi *engine.Table) int {
	n := 0
	for _, w := range tpi.Float64Col(kb.TPiW) {
		if !engine.IsNullFloat64(w) {
			n++
		}
	}
	return n
}

// table hands the columns over as TΦ.
func (c *factorCols) table() *engine.Table {
	return engine.TableFromColumns("TPhi", FactorSchema(), c.i1, c.i2, c.i3, c.w)
}

// Ground is the one-call convenience: batch-ground k under opts.
func Ground(k *kb.KB, opts Options) (*Result, error) {
	g, err := NewBatch(k, opts)
	if err != nil {
		return nil, err
	}
	return g.Ground()
}

// Extend incrementally expands a previous grounding result with newly
// arrived facts: the prior closure is reused as-is and the first
// iteration joins only against the delta (semi-naive seeding), so the
// cost scales with the new data, not the whole KB. The rule set and
// options must describe the same MLN the prior run used.
//
// TΠ grows in place: the run appends to a Fork of prev.Facts, which
// appends into prev's columns when this is the first run to extend prev
// and copies them at its first append otherwise (a sibling, or the
// retry of a cancelled run); prev's readers see none of it. The run starts from the fact index and
// the MLN partitions prev's run published, when prev is itself an
// Extend's result, and publishes its own on the result it returns: a
// lineage of rounds builds each once (DESIGN.md §5).
//
// The factor phase, when enabled, maintains the last TΦ computed along
// prev's lineage — prev's own, or the one a chain of SkipFactors extends
// carried forward, on whichever backend — from the facts added since,
// rather than recomputing Query 2 over the combined closure; the result
// is the same table as a multiset, the prior rows first and the new
// clauses after them. A lineage with no computed TΦ (one that has
// skipped factors throughout) maintains the empty one, every fact of the
// closure new to it, as a fresh run does.
func Extend(k *kb.KB, prev *Result, newFacts []kb.Fact, opts Options) (*Result, error) {
	g, err := newBatch(k, prev.parts, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{}

	loadStart := time.Now()
	tpi := prev.Facts.Fork()
	var ix *factIndex
	if prev.index != nil {
		ix = prev.index.fork(tpi)
	} else {
		ix = newFactIndex(tpi)
	}
	// IDs continue from prev's run, past the ones its constraint passes
	// freed, so no fact ID repeats along a lineage.
	ix.next = max(ix.next, prev.next)
	res.LoadTime = time.Since(loadStart)

	// Append the genuinely new facts with fresh IDs, preserving their
	// observation weights. The seed delta is everything at or above the
	// pre-append ID watermark.
	deltaMin := ix.next
	res.tphi = prev.tphi
	for _, f := range newFacts {
		if !ix.set.ContainsKey(f.Rel, f.X, f.XClass, f.Y, f.YClass) {
			ix.add(f.Rel, f.X, f.XClass, f.Y, f.YClass, f.W)
		}
	}
	res, err = g.groundFrom(g, tpi, ix, deltaMin, res)
	if err == nil {
		// Readers of the published index never extend it.
		ix.on(kb.TPiX)
		res.index, res.parts = ix, g.parts
	}
	return res, err
}
