package ground

import (
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
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
	return res.tphi.watermark, res.tphi.continueAt(newFactIndex(res.Facts).next).watermark
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
