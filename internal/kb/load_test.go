package kb_test

import (
	"runtime"
	"slices"
	"testing"

	"probkb/internal/engine"
	"probkb/internal/kb"
	"probkb/internal/quality"
	"probkb/internal/synth"
)

// allocated returns the bytes f allocates. Two GCs first empty the
// engine's scratch pools (a pooled item survives one GC), so f pays for
// the scratch its joins take, whatever ran before it.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// medianOf returns the median of loadRuns values of measure. Under the
// race detector a pool drops a quarter of what it is handed back, so
// what one Query 3 allocates varies by up to ±20% from run to run at
// scale 0.05, either way.
func medianOf(measure func() uint64) uint64 {
	vs := make([]uint64, loadRuns)
	for i := range vs {
		vs[i] = measure()
	}
	slices.Sort(vs)
	return vs[loadRuns/2]
}

// loadRuns is how many runs a PreClean or Query 3 measurement is the
// median of.
const loadRuns = 5

// loadBytes is what TestExpandLoadBytesFlat measures on the scale-s
// corpus: its facts, the bytes of one FactsTable of the unforked KB, and
// the median bytes of the Query 3 PreClean runs and of one PreClean of a
// fresh copy of the corpus, with whether every PreClean kept its KB's
// identity set.
func loadBytes(t *testing.T, s float64) (facts int, table, preclean, query uint64, keptSet bool) {
	t.Helper()
	corpus := func() *kb.KB {
		c, err := synth.ReVerbSherlock(s, 42)
		if err != nil {
			t.Fatal(err)
		}
		return c.KB
	}
	k := corpus()
	facts = k.NumFacts()
	var tpi *engine.Table
	table = allocated(func() { tpi = k.FactsTable() })
	query = medianOf(func() uint64 {
		return allocated(func() { quality.NewChecker(k).Violations(tpi) })
	})

	// A KB no fork shares: a deletion from a fork's shared rows copies
	// them first, which is the fork's cost, not PreClean's.
	keptSet = true
	preclean = medianOf(func() uint64 {
		k := corpus()
		set, deleted := kb.FactSetOf(k), 0
		b := allocated(func() { deleted = quality.PreClean(k) })
		if deleted == 0 {
			t.Fatalf("fixture drifted: PreClean deletes nothing at scale %.2f", s)
		}
		keptSet = keptSet && kb.FactSetOf(k) == set
		return b
	})
	return facts, table, preclean, query, keptSet
}

// TestExpandLoadBytesFlat gates what an expansion pays to load Π, which
// is a table: FactsTable forks it, and PreClean deletes from it in place,
// with the identity set following the deletion.
//   - FactsTable of an unforked KB allocates the same few hundred bytes
//     at scale 0.25 as at 0.05 (measured ×1.00; copying Π into columns,
//     as before Π was a table, is ×5).
//   - PreClean builds no identity set from scratch: the KB keeps the
//     set it had, which followed the deletion.
//   - Beside its Query 3, PreClean allocates at most
//     maxPreCleanExtraPerFact bytes a fact (measured 3.7–5.6 B at scale
//     0.05, 5.5–5.9 B at 0.25: the victims and the deletion's record): a
//     copy of Π (32 B a fact) or a new identity set (~20 B a fact) fails
//     it. The allowance is per fact, not a multiple of the query's
//     bytes: the query's cost follows the GROUP BY kernel's (25–38 B a
//     fact), what PreClean adds to it does not.
func TestExpandLoadBytesFlat(t *testing.T) {
	var tables [2]uint64
	for i, s := range []float64{0.05, 0.25} {
		facts, table, preclean, query, keptSet := loadBytes(t, s)
		extra := (float64(preclean) - float64(query)) / float64(facts)
		t.Logf("scale %.2f: FactsTable %d B; PreClean %d B, its Query 3 %d B (%.1f B a fact more, %d facts)", s, table, preclean, query, extra, facts)
		if !keptSet {
			t.Errorf("scale %.2f: PreClean built the KB a new identity set", s)
		}
		if extra > maxPreCleanExtraPerFact {
			t.Errorf("scale %.2f: PreClean allocates %.1f B a fact beside its Query 3, bound %.0f B", s, extra, maxPreCleanExtraPerFact)
		}
		tables[i] = table
	}
	if ratio := float64(tables[1]) / float64(tables[0]); ratio > maxFactsTableBytesRatio {
		t.Errorf("FactsTable allocates ×%.2f from scale 0.05 to 0.25, bound ×%.1f", ratio, maxFactsTableBytesRatio)
	}
}

// TestExpandLoadBytesFlat's bounds.
const (
	maxFactsTableBytesRatio = 1.5
	maxPreCleanExtraPerFact = 8.0
)

// TestForkAllocs pins what forking a loaded KB allocates: the KB, its
// three dictionaries' views, TΠ's Fork and its identity set's, whose
// tail is built only at the first row appended past the base, so a fork
// that never grows Π pays none of it (10 allocations with the tail
// built at every fork).
func TestForkAllocs(t *testing.T) {
	c, err := synth.ReVerbSherlock(0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	k := c.KB
	allocs := testing.AllocsPerRun(100, func() { k.Fork() })
	bytes := allocated(func() { k.Fork() })
	t.Logf("KB.Fork at scale 0.05: %v allocations, %d B", allocs, bytes)
	if allocs > maxForkAllocs {
		t.Fatalf("KB.Fork allocates %v times, bound %d", allocs, maxForkAllocs)
	}
}

// maxForkAllocs is TestForkAllocs' bound, as measured.
const maxForkAllocs = 8
