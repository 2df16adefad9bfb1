// Benchmarks regenerating the measurements behind every table and figure
// of the paper's evaluation (Section 6), plus ablations of the design
// choices DESIGN.md calls out. The printable experiment reports live in
// internal/bench and cmd/probkb-bench; these testing.B wrappers measure
// the same code paths at a fixed small scale so `go test -bench=.` stays
// fast and comparable across machines.
//
// Index (see DESIGN.md §3 for the experiment table):
//
//	BenchmarkTable3_*     — load / Query 1 / Query 2 per system
//	BenchmarkFig4_*       — M3 join plan with vs without views
//	BenchmarkFig6a_*      — rule-count sweep (S1)
//	BenchmarkFig6b_*      — fact-count sweep (S2)
//	BenchmarkFig6c_*      — MPP variants (S2, Queries 1+2)
//	BenchmarkFig7a_*      — quality-control configurations
//	BenchmarkInference    — marginal inference over a constrained grounding
//	BenchmarkAblation_*   — design-choice ablations
//	BenchmarkStoreSync    — one 64-row batch made durable: O(delta) sync vs full diff
package probkb_test

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"probkb"
	"probkb/internal/engine"
	"probkb/internal/factor"
	"probkb/internal/ground"
	"probkb/internal/infer"
	"probkb/internal/kb"
	"probkb/internal/mln"
	"probkb/internal/mpp"
	"probkb/internal/quality"
	"probkb/internal/store"
	"probkb/internal/synth"
)

const (
	benchScale = 0.01
	benchSeed  = 42
	benchSegs  = 4
)

var (
	corpusOnce sync.Once
	corpusVal  *synth.Corpus
)

// benchCorpus generates (once) the shared benchmark corpus.
func benchCorpus(b *testing.B) *synth.Corpus {
	b.Helper()
	corpusOnce.Do(func() {
		c, err := synth.ReVerbSherlock(benchScale, benchSeed)
		if err != nil {
			panic(err)
		}
		corpusVal = c
	})
	return corpusVal
}

// preCleaned returns a constraint-pre-cleaned clone (the Table 3 setup).
func preCleaned(b *testing.B) *kb.KB {
	b.Helper()
	k := benchCorpus(b).KB.Clone()
	quality.PreClean(k)
	return k
}

// ---------------------------------------------------------------------------
// Table 3: load, Query 1 (4 iterations), Query 2

func BenchmarkTable3_Load_ProbKB(b *testing.B) {
	k := preCleaned(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := k.FactsTable()
		_ = t.NumRows()
	}
}

func BenchmarkTable3_Load_TuffyT(b *testing.B) {
	// Tuffy's bulkload includes one predicate table per relation; measure
	// it through a 0-iteration grounding run.
	k := preCleaned(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := ground.NewTuffy(k, ground.Options{MaxIterations: 1, SkipFactors: true})
		if err != nil {
			b.Fatal(err)
		}
		res, err := g.Ground()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.LoadTime.Nanoseconds()), "load-ns/op")
	}
}

func benchGroundQuery1(b *testing.B, sys func(k *kb.KB) (*ground.Result, error)) {
	k := preCleaned(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sys(k)
		if err != nil {
			b.Fatal(err)
		}
		if res.Facts.NumRows() == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkTable3_Query1_ProbKB(b *testing.B) {
	benchGroundQuery1(b, func(k *kb.KB) (*ground.Result, error) {
		return ground.Ground(k, ground.Options{MaxIterations: 4, SkipFactors: true})
	})
}

func BenchmarkTable3_Query1_ProbKBp(b *testing.B) {
	benchGroundQuery1(b, func(k *kb.KB) (*ground.Result, error) {
		g, err := ground.NewMPP(k, ground.Options{MaxIterations: 4, SkipFactors: true}, mpp.NewCluster(benchSegs), true)
		if err != nil {
			return nil, err
		}
		return g.Ground()
	})
}

func BenchmarkTable3_Query1_TuffyT(b *testing.B) {
	benchGroundQuery1(b, func(k *kb.KB) (*ground.Result, error) {
		g, err := ground.NewTuffy(k, ground.Options{MaxIterations: 4, SkipFactors: true})
		if err != nil {
			return nil, err
		}
		return g.Ground()
	})
}

func BenchmarkTable3_Query2_ProbKB(b *testing.B) {
	k := preCleaned(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := ground.Ground(k, ground.Options{MaxIterations: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.FactorTime.Nanoseconds()), "query2-ns/op")
	}
}

// ---------------------------------------------------------------------------
// Figure 4: the M3 grounding join with and without redistributed views

func benchFig4(b *testing.B, useViews bool) {
	c := benchCorpus(b)
	k, err := synth.S2(c, len(c.KB.Facts)+20000, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	g, err := ground.NewMPP(k, ground.Options{}, mpp.NewCluster(benchSegs), useViews)
	if err != nil {
		b.Fatal(err)
	}
	if err := g.Load(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan := g.AtomsPlan(mln.P3)
		if _, err := plan.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_M3Join_WithViews(b *testing.B)    { benchFig4(b, true) }
func BenchmarkFig4_M3Join_WithoutViews(b *testing.B) { benchFig4(b, false) }

// ---------------------------------------------------------------------------
// Figure 6(a): rule-count sweep (first grounding iteration)

func benchFig6a(b *testing.B, nRules int, sysName string) {
	c := benchCorpus(b)
	k, err := synth.S1(c, nRules, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	opts := ground.Options{MaxIterations: 1, SkipFactors: true}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var res *ground.Result
		var err error
		switch sysName {
		case "probkb":
			res, err = ground.Ground(k, opts)
		case "probkb-p":
			var g *ground.MPPGrounder
			if g, err = ground.NewMPP(k, opts, mpp.NewCluster(benchSegs), true); err == nil {
				res, err = g.Ground()
			}
		case "tuffy":
			var g *ground.TuffyGrounder
			if g, err = ground.NewTuffy(k, opts); err == nil {
				res, err = g.Ground()
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkFig6a_Rules1000_ProbKB(b *testing.B)  { benchFig6a(b, 1000, "probkb") }
func BenchmarkFig6a_Rules1000_ProbKBp(b *testing.B) { benchFig6a(b, 1000, "probkb-p") }
func BenchmarkFig6a_Rules1000_TuffyT(b *testing.B)  { benchFig6a(b, 1000, "tuffy") }
func BenchmarkFig6a_Rules5000_ProbKB(b *testing.B)  { benchFig6a(b, 5000, "probkb") }
func BenchmarkFig6a_Rules5000_ProbKBp(b *testing.B) { benchFig6a(b, 5000, "probkb-p") }
func BenchmarkFig6a_Rules5000_TuffyT(b *testing.B)  { benchFig6a(b, 5000, "tuffy") }

// ---------------------------------------------------------------------------
// Figure 6(b)/(c): fact-count sweep

func benchFig6bc(b *testing.B, nFacts int, sysName string, withFactors bool) {
	c := benchCorpus(b)
	k, err := synth.S2(c, nFacts, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	opts := ground.Options{MaxIterations: 1, SkipFactors: !withFactors}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		switch sysName {
		case "probkb":
			_, err = ground.Ground(k, opts)
		case "probkb-p":
			var g *ground.MPPGrounder
			if g, err = ground.NewMPP(k, opts, mpp.NewCluster(benchSegs), true); err == nil {
				_, err = g.Ground()
			}
		case "probkb-pn":
			var g *ground.MPPGrounder
			if g, err = ground.NewMPP(k, opts, mpp.NewCluster(benchSegs), false); err == nil {
				_, err = g.Ground()
			}
		case "tuffy":
			var g *ground.TuffyGrounder
			if g, err = ground.NewTuffy(k, opts); err == nil {
				_, err = g.Ground()
			}
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6b_Facts20K_ProbKB(b *testing.B)  { benchFig6bc(b, 20000, "probkb", false) }
func BenchmarkFig6b_Facts20K_ProbKBp(b *testing.B) { benchFig6bc(b, 20000, "probkb-p", false) }
func BenchmarkFig6b_Facts20K_TuffyT(b *testing.B)  { benchFig6bc(b, 20000, "tuffy", false) }

func BenchmarkFig6c_Facts20K_ProbKB(b *testing.B)   { benchFig6bc(b, 20000, "probkb", true) }
func BenchmarkFig6c_Facts20K_ProbKBpn(b *testing.B) { benchFig6bc(b, 20000, "probkb-pn", true) }
func BenchmarkFig6c_Facts20K_ProbKBp(b *testing.B)  { benchFig6bc(b, 20000, "probkb-p", true) }

// ---------------------------------------------------------------------------
// Figure 7(a): quality-control configurations

func benchFig7a(b *testing.B, constraints bool, theta float64) {
	c := benchCorpus(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		work := c.KB
		if theta < 1 {
			work = quality.CleanRules(work, theta)
		} else {
			work = work.Clone()
		}
		opts := ground.Options{MaxIterations: 4, SkipFactors: true}
		if constraints {
			quality.PreClean(work)
			opts.ConstraintHook = quality.NewChecker(work).Hook()
		}
		if _, err := ground.Ground(work, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7a_NoQC(b *testing.B)    { benchFig7a(b, false, 1) }
func BenchmarkFig7a_RC20(b *testing.B)    { benchFig7a(b, false, 0.2) }
func BenchmarkFig7a_SC(b *testing.B)      { benchFig7a(b, true, 1) }
func BenchmarkFig7a_SC_RC20(b *testing.B) { benchFig7a(b, true, 0.2) }

// BenchmarkFig7b_Categorize measures the violation taxonomy pass.
func BenchmarkFig7b_Categorize(b *testing.B) {
	c := benchCorpus(b)
	res, err := ground.Ground(c.KB, ground.Options{MaxIterations: 3, SkipFactors: true})
	if err != nil {
		b.Fatal(err)
	}
	checker := quality.NewChecker(c.KB)
	viol := checker.Violations(res.Facts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Oracle.CategorizeAll(viol, res.Facts, res.BaseFacts)
	}
}

// ---------------------------------------------------------------------------
// Marginal inference

// BenchmarkInference is the inference step of a constrained expansion at
// the bench scale: every component of this graph is enumerated, so it
// times the exact pass. The two samplers are compared where one is
// needed — internal/infer's BenchmarkGiantComponent and
// BenchmarkGibbsSweep.
func BenchmarkInference(b *testing.B) {
	k := preCleaned(b)
	res, err := ground.Ground(k, ground.Options{MaxIterations: 4})
	if err != nil {
		b.Fatal(err)
	}
	g, err := factor.FromResult(res)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		infer.Marginals(g, infer.Options{Seed: 1})
	}
}

// ---------------------------------------------------------------------------
// Ablations

// BenchmarkAblation_IntKeys / _StringKeys quantify dictionary encoding:
// the same build-and-probe match counting with int32 keys vs raw string
// keys. Both sides do identical map work; only the key type differs.
func BenchmarkAblation_IntKeys(b *testing.B) {
	lk, rk := ablationIntKeys()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := make(map[int32]int32, len(lk))
		for _, k := range lk {
			m[k]++
		}
		matches := int32(0)
		for _, k := range rk {
			matches += m[k]
		}
		_ = matches
	}
}

func BenchmarkAblation_StringKeys(b *testing.B) {
	lk, rk := ablationStringKeys()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := make(map[string]int32, len(lk))
		for _, k := range lk {
			m[k]++
		}
		matches := int32(0)
		for _, k := range rk {
			matches += m[k]
		}
		_ = matches
	}
}

func ablationIntKeys() (l, r []int32) {
	l = make([]int32, 20000)
	r = make([]int32, 20000)
	for i := range l {
		l[i] = int32(i % 997)
		r[i] = int32(i % 1009)
	}
	return
}

func ablationStringKeys() (l, r []string) {
	l = make([]string, 20000)
	r = make([]string, 20000)
	for i := range l {
		l[i] = fmt.Sprintf("entity_with_a_longish_name_%d", i%997)
		r[i] = fmt.Sprintf("entity_with_a_longish_name_%d", i%1009)
	}
	return
}

// BenchmarkAblation_SingleTableLoad / _PerRelationLoad contrast the two
// physical designs of the Table 3 "Load" row: ProbKB's one facts table
// vs Tuffy's one table per relation. Both start from the same fact list.
func BenchmarkAblation_SingleTableLoad(b *testing.B) {
	k := preCleaned(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.FactsTable()
	}
}

func BenchmarkAblation_PerRelationLoad(b *testing.B) {
	k := preCleaned(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tpi := k.FactsTable()
		tables := make(map[int32]*engine.Table, k.RelDict.Len())
		for id := int32(0); id < int32(k.RelDict.Len()); id++ {
			tables[id] = engine.NewTable("pred", kb.FactsSchema())
		}
		rels := tpi.Int32Col(kb.TPiR)
		perRel := make(map[int32][]int32)
		for r := 0; r < tpi.NumRows(); r++ {
			perRel[rels[r]] = append(perRel[rels[r]], int32(r))
		}
		for rel, rows := range perRel {
			tables[rel].AppendRowsFrom(tpi, rows)
		}
	}
}

// BenchmarkAblation_TextKBLoad / _BinaryKBLoad contrast the on-disk
// forms' bulkload cost: the text directory against the snapshot file
// probkb.Load reads (the durable store's columnar format).
func BenchmarkAblation_TextKBLoad(b *testing.B) {
	c := benchCorpus(b)
	dir := b.TempDir() + "/kb"
	if err := c.KB.SaveDir(dir); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := kb.LoadDir(dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BinaryKBLoad(b *testing.B) {
	c := benchCorpus(b)
	tables, err := store.KBTables(c.KB, 0)
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/kb.pks"
	if err := os.WriteFile(path, store.EncodeTables(tables), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := probkb.Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_NaiveVsSemiNaive contrasts the paper's naive closure
// loop with semi-naive (delta-driven) evaluation, on a corpus grounded
// to convergence.
func BenchmarkAblation_NaiveGrounding(b *testing.B) {
	k := preCleaned(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ground.Ground(k, ground.Options{SkipFactors: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_SemiNaiveGrounding(b *testing.B) {
	k := preCleaned(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ground.Ground(k, ground.Options{SkipFactors: true, SemiNaive: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_ConstraintsInLoop measures grounding with vs without
// the per-iteration constraint pass (the §6.1.1 growth-control choice).
func BenchmarkAblation_GroundNoConstraints(b *testing.B) {
	c := benchCorpus(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ground.Ground(c.KB, ground.Options{MaxIterations: 4, SkipFactors: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_GroundWithConstraints(b *testing.B) {
	c := benchCorpus(b)
	work := c.KB.Clone()
	quality.PreClean(work)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A checker per run: one that has already removed this KB's
		// violators would delete them on sight and measure another loop.
		hook := quality.NewChecker(work).Hook()
		if _, err := ground.Ground(work, ground.Options{MaxIterations: 4, SkipFactors: true, ConstraintHook: hook}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSync measures what making one streamed batch durable
// costs the store: 64 rows appended to an already-synced facts table of
// 10K and of 100K rows, then one Store.sync — on the in-step delta path
// and, as the yardstick, with the store knocked out of step so it must
// diff the whole table against its mirror. The delta path's time and
// allocations must not depend on the table size; the full diff's grow
// with it. Every op appends to a real WAL and fsyncs it, as in
// production. The table keeps the rows it is given, so fix the
// iteration count when comparing sizes: -benchtime=50x -benchmem.
func BenchmarkStoreSync(b *testing.B) {
	const batch = 64
	for _, rows := range []int{10_000, 100_000} {
		for _, path := range []string{"delta", "full"} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, path), func(b *testing.B) {
				k := kb.New()
				for i := 0; i < rows; i++ {
					k.InternFact(fmt.Sprintf("rel%d", i%50), fmt.Sprintf("e%d", i), "Thing",
						fmt.Sprintf("e%d", (i*7+1)%rows), "Thing", 0.5)
				}
				st, err := probkb.CreateStore(b.TempDir()+"/store", probkb.WrapKB(k))
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				tpi := k.FactsTable()
				if err := st.SyncTable(k, tpi, false); err != nil {
					b.Fatal(err)
				}
				rel, class := k.RelDict.Intern("rel0"), k.Classes.Intern("Thing")
				next := int32(tpi.NumRows())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					for j := 0; j < batch; j++ {
						x := k.Entities.Intern(fmt.Sprintf("new%d", next))
						tpi.AppendRow(next, rel, x, class, x, class, engine.NullFloat64())
						next++
					}
					b.StartTimer()
					if err := st.SyncTable(k, tpi, path == "full"); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if want := int64(b.N); st.WALRecords() != want {
					b.Fatalf("%d WAL records after %d batches", st.WALRecords(), b.N)
				}
			})
		}
	}
}
