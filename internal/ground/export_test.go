package ground

import (
	"context"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/mln"
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
// continuing from res maintains was computed, and the one the run
// maintains it from, lower when it hands out an ID again (see
// continueAt); -1, -1 when there is none.
func FactorWatermark(res *Result) (at, from int32) {
	if res.tphi == nil {
		return -1, -1
	}
	return res.tphi.watermark, res.tphi.continueAt(nextFactID(res.Facts)).watermark
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
// over all of tpi for every non-empty partition in order, as Ground
// states it, then the unit clauses appended a row at a time.
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
	g.load(tpi)
	res := &Result{}
	if err := g.batch.factorPhase(context.Background(), g, tpi, g.ix, res); err != nil {
		t.Fatal(err)
	}
	return res.Factors
}
