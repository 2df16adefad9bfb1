package ground

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
	"probkb/internal/mpp"
)

// Test helpers of this package, for the external test package: the
// tests that ground under the real quality.Checker live there, because
// quality imports ground.
var (
	RandomKB       = randomKB
	FactSet        = factSet
	FactorMultiset = factorMultiset
	FactorsEqual   = factorsEqual
)

// FactorWatermark returns the fact-ID watermark at which the TΦ a run
// continuing from res maintains was computed; -1 when there is none.
func FactorWatermark(res *Result) int32 {
	if res.tphi == nil {
		return -1
	}
	return res.tphi.watermark
}

// NextFactID returns the fact ID an Extend of res hands out first.
func NextFactID(res *Result) int32 { return res.next }

// LocalRules returns the clauses lg grounds the query with: those within
// its depth bound of the query relation.
func LocalRules(lg *LocalGrounder, q LocalQuery) []mln.Clause {
	depth := q.Depth
	if depth <= 0 {
		depth = DefaultLocalDepth
	}
	rules, _ := lg.reachable(q.Rel, depth)
	return rules
}

// WithoutIndex returns a copy of res that carries no fact index and no
// MLN partitions: an Extend of it builds its own from scratch, as an
// Extend of an Expand result does.
func WithoutIndex(res *Result) *Result {
	c := *res
	c.index, c.parts = nil, nil
	return &c
}

// Partitions returns the MLN partitions res carries for an Extend of it,
// nil when it carries none.
func Partitions(res *Result) *mln.Partitions { return res.parts }

// SharesIndex reports whether next carries a fact index holding all
// three sealed bases of the one prev carries: the identity set's and
// both entity columns'.
func SharesIndex(prev, next *Result) bool {
	p, n := prev.index, next.index
	return p != nil && n != nil && n.set.SharesBase(p.set) && n.byX.SharesBase(p.byX) && n.byY.SharesBase(p.byY)
}

// IndexBases returns how many rows of res.Facts the sealed bases of its
// fact index cover — the identity set's and the entity columns' — and -1,
// -1 when it carries none.
func IndexBases(res *Result) (set, entity int) {
	if res.index == nil {
		return -1, -1
	}
	return res.index.set.BaseLen(), res.index.byX.BaseLen()
}

// RecomputeFactors is the oracle a maintained TΦ is held to: Query 2-p
// (factorsPlan) over all of tpi for every non-empty partition in order,
// then the unit clauses appended a row at a time.
func RecomputeFactors(t testing.TB, k *kb.KB, tpi *engine.Table) *engine.Table {
	t.Helper()
	g, err := NewBatch(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	factors := engine.NewTable("TPhi", FactorSchema())
	for _, p := range g.parts.NonEmpty() {
		out, err := g.factorsPlan(p, tpi).Run()
		if err != nil {
			t.Fatal(err)
		}
		factors.AppendTable(out)
	}
	ids, ws := tpi.Int32Col(kb.TPiI), tpi.Float64Col(kb.TPiW)
	for r := range ids {
		if !engine.IsNullFloat64(ws[r]) {
			factors.AppendRow(ids[r], engine.NullInt32, engine.NullInt32, ws[r])
		}
	}
	return factors
}

// factorsPlan builds Query 2-p as the paper states it, the oracle of the
// factor phase: Query 1-p's body join over all of TΠ, joined to the head
// to resolve each clause's I1. It emits (I1, I2, I3, w), I3 NULL for a
// one-atom body.
func (g *BatchGrounder) factorsPlan(p int, tpi *engine.Table) engine.Node {
	_, body := mln.Shape(p)
	outs := []engine.JoinOut{engine.ProbeCol("I1", kb.TPiI), engine.BuildCol("I2", 5)}
	if len(body) == 2 {
		outs = append(outs, engine.BuildCol("I3", 6))
	}
	outs = append(outs, engine.BuildCol("w", 5+len(body)))
	head := engine.NewHashJoin(g.atomsPlan(p, tpi, tpi), engine.NewScan(tpi),
		[]int{0, 2, 4, 1, 3}, []int{kb.TPiR, kb.TPiC1, kb.TPiC2, kb.TPiX, kb.TPiY}, outs,
		g.parts.Table(p).Name()+".R1 = T1.R AND head classes AND head args")
	if len(body) == 2 {
		return head
	}
	return engine.NewProject(head,
		engine.ColExpr("I1", 0),
		engine.ColExpr("I2", 1),
		engine.ConstI32Expr("I3", engine.NullInt32),
		engine.ColExpr("w", 2),
	)
}

// TuffyFactors is the oracle a maintained TΦ is held to that shares no
// plan builder with it: Tuffy-T's per-rule factor queries
// (ruleFactorsPlan) over tpi, then the unit clauses. Its rows come in
// rule order, so it agrees with TΦ as a multiset only.
func TuffyFactors(t testing.TB, k *kb.KB, tpi *engine.Table) *engine.Table {
	t.Helper()
	g, err := NewTuffy(k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g.load(tpi, newFactIndex(tpi))
	res := &Result{}
	if err := g.batch.factorPhase(context.Background(), g, tpi, g.ix, res); err != nil {
		t.Fatal(err)
	}
	return res.Factors
}

// IndexRebuilds returns how many times the run that produced res
// rebuilt its fact index from scratch (factIndex.rebuild); -1 when res
// carries no index.
func IndexRebuilds(res *Result) int {
	if res.index == nil {
		return -1
	}
	return res.index.rebuilds
}

// Distributions returns how many times g distributed all of TΠ to its
// cluster (redistribute): once, at load, for a run that follows its
// deletions.
func Distributions(g *MPPGrounder) int { return g.distributions }

// ClusterCopiesMatch returns nil when g's cluster copies of TΠ hold what
// distributing its master copy afresh does: each segment of the base
// table, row for row, what Distribute by I puts there, and each view
// segment, as a multiset, what Materialize puts there (a view's rows
// come in its load order, then its appends').
func ClusterCopiesMatch(g *MPPGrounder) error {
	fresh := g.cluster.Distribute(g.tpi, []int{kb.TPiI})
	for s := 0; s < g.cluster.NumSegments(); s++ {
		if got, want := rowStrings(g.dT.Segment(s)), rowStrings(fresh.Segment(s)); !slices.Equal(got, want) {
			return fmt.Errorf("segment %d of TΠ holds %d rows, a fresh distribution %d, or in another order", s, len(got), len(want))
		}
	}
	if !g.useViews {
		if g.views != nil {
			return fmt.Errorf("views kept on a run without them")
		}
		return nil
	}
	views := mpp.NewViews(g.cluster)
	for _, key := range [][]int{keyRCC, keyRCxC, keyRCCy} {
		got, ok := g.views.Lookup(g.dT.Name(), key)
		if !ok {
			return fmt.Errorf("no view by %v", key)
		}
		want := views.Materialize(fresh, key)
		for s := 0; s < g.cluster.NumSegments(); s++ {
			gr, wr := printedRows(got.Segment(s)), printedRows(want.Segment(s))
			if !slices.Equal(gr, wr) {
				return fmt.Errorf("segment %d of the view by %v holds %d rows, a fresh one %d, or others", s, key, len(gr), len(wr))
			}
		}
	}
	return nil
}

// rowStrings renders each row of t, in order.
func rowStrings(t *engine.Table) []string {
	rows := make([]string, t.NumRows())
	for r := range rows {
		for c := 0; c < t.Schema().NumCols(); c++ {
			rows[r] += t.ValueString(r, c) + "|"
		}
	}
	return rows
}

// GroundWithIndex is Ground, except that the result carries the run's
// fact index, as an Extend's result does, for tests that hold it to a
// fresh one.
func GroundWithIndex(k *kb.KB, opts Options) (*Result, error) {
	g, err := NewBatch(k, opts)
	if err != nil {
		return nil, err
	}
	tpi := k.FactsTable()
	ix := newFactIndex(tpi)
	res, err := g.groundFrom(g, tpi, ix, 0, &Result{})
	if err == nil {
		ix.on(kb.TPiX)
		res.index = ix
	}
	return res, err
}

// IndexMatchesFresh returns nil when the fact index res carries answers
// every lookup as newFactIndex over res.Facts, with both entity columns
// built, does: every row's key, and every entity's rows in x and in y.
func IndexMatchesFresh(res *Result) error {
	if res.index == nil {
		return fmt.Errorf("the result carries no fact index")
	}
	return indexDiff(res.index)
}

func indexDiff(ix *factIndex) error {
	tpi := ix.tpi
	fresh := newFactIndex(tpi)
	if ix.next < fresh.next {
		// A run's next ID passes those of the rows it deleted; a fresh
		// index starts past the last row's.
		return fmt.Errorf("next fact ID %d, below a fresh index's %d", ix.next, fresh.next)
	}
	if ix.set.Len() != tpi.NumRows() {
		return fmt.Errorf("the identity set holds %d rows of %d", ix.set.Len(), tpi.NumRows())
	}
	for r := 0; r < tpi.NumRows(); r++ {
		if got := ix.set.Find(tpi, r, kb.FactKeyCols); got != r {
			return fmt.Errorf("the identity set finds row %d's key at row %d", r, got)
		}
	}
	ix.on(kb.TPiX)
	top := int32(0)
	for _, col := range []int{kb.TPiX, kb.TPiY} {
		for _, v := range tpi.Int32Col(col) {
			top = max(top, v)
		}
	}
	for _, col := range []int{kb.TPiX, kb.TPiY} {
		got, want := ix.on(col), engine.NewEntityIndex(tpi, col)
		for v := int32(0); v <= top+1; v++ {
			if g, w := got.Lookup(v, nil), want.Lookup(v, nil); fmt.Sprint(g) != fmt.Sprint(w) {
				return fmt.Errorf("column %d, entity %d: rows %v, a fresh index's %v", col, v, g, w)
			}
		}
	}
	return nil
}

// IndexedFacts is a TΠ with a run's fact index over it, both entity
// columns built, as an iteration of the closure loop holds them.
type IndexedFacts struct{ ix *factIndex }

// IndexFacts indexes tpi as a run over it does.
func IndexFacts(tpi *engine.Table) *IndexedFacts {
	ix := newFactIndex(tpi)
	ix.on(kb.TPiX)
	return &IndexedFacts{ix}
}

// Add appends f under the next fact ID unless TΠ holds it, as the merge
// does, and reports whether it did.
func (f *IndexedFacts) Add(x kb.Fact) bool {
	if f.ix.set.ContainsKey(x.Rel, x.X, x.XClass, x.Y, x.YClass) {
		return false
	}
	f.ix.add(x.Rel, x.X, x.XClass, x.Y, x.YClass, x.W)
	return true
}

// Pass runs hook as the closure loop runs a constraint pass — on TΠ,
// then the index follows what it deleted — and returns what hook does.
func (f *IndexedFacts) Pass(hook func(*engine.Table) int) int {
	n := hook(f.ix.tpi)
	f.ix.followDeletion(0)
	return n
}

// MatchesFresh is IndexMatchesFresh for f's index.
func (f *IndexedFacts) MatchesFresh() error { return indexDiff(f.ix) }

// NextFactIDByScan is the scan nextFactID replaced, the oracle its
// answer is held to: one past the highest ID tpi holds.
func NextFactIDByScan(tpi *engine.Table) int32 {
	next := int32(0)
	for _, id := range tpi.Int32Col(kb.TPiI) {
		next = max(next, id+1)
	}
	return next
}

// NextFactIDs returns what the three tables a run starts from say its
// first new fact ID is, by nextFactID: the KB's facts table, a Fork of
// res.Facts (an Extend's), and the local grounder's seed table for the
// atom (rel, x, y) over res.
func NextFactIDs(k *kb.KB, res *Result, rel, x, y int32) (load, fork, local int32, seeds *engine.Table) {
	lg := NewLocalFor(k.Rules, res, Options{})
	_, rels := lg.reachable(rel, DefaultLocalDepth)
	seed := engine.NewTable("T_local", kb.FactsSchema())
	seed.AppendRowsFrom(lg.facts, lg.entityBall(x, y, DefaultLocalDepth+1, rels))
	return nextFactID(k.FactsTable()), nextFactID(res.Facts.Fork()), nextFactID(seed), seed
}
