package mpp

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"probkb/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden EXPLAIN files")

// timeRe matches the only nondeterministic part of an EXPLAIN line.
var timeRe = regexp.MustCompile(`time=[^ )]+`)

func normalizeExplain(s string) string {
	return timeRe.ReplaceAllString(s, "time=T")
}

// goldenTables builds the grounding-shaped fixture: a facts table T
// (fact id, class pair, argument, weight) and a small MLN partition M1
// (head class, body class, rule weight).
func goldenTables() (facts, mln *engine.Table) {
	rng := rand.New(rand.NewSource(1))
	facts = engine.NewTable("T", engine.NewSchema(
		engine.C("i", engine.Int32), engine.C("c1", engine.Int32),
		engine.C("j", engine.Int32), engine.C("c2", engine.Int32),
		engine.C("w", engine.Float64)))
	for r := 0; r < 300; r++ {
		facts.AppendRow(int32(r), rng.Int31n(8), rng.Int31n(50), rng.Int31n(8), rng.Float64())
	}
	mln = engine.NewTable("M1", engine.NewSchema(
		engine.C("h", engine.Int32), engine.C("b", engine.Int32),
		engine.C("wr", engine.Float64)))
	for r := 0; r < 24; r++ {
		mln.AppendRow(rng.Int31n(8), rng.Int31n(8), rng.Float64())
	}
	return facts, mln
}

// goldenOpts pins the execution shape the golden files encode: 4 workers
// over 64-row morsels regardless of the host's CPU count.
var goldenOpts = engine.Opts{Workers: 4, MorselSize: 64}

// goldenPlans returns the three representative grounding plans over the
// fixture. Each is stated once, as an engine plan; the distributed form
// is that plan lowered by goldenLower.
//
//   - rule-join: MLN partition joined against the facts by body class,
//     deduplicated — the batch rule application at the heart of the
//     paper's grounding (Figure 3); distributed, it needs motions.
//   - delta-candidates: filter + project + distinct over the facts — the
//     semi-naive delta step; distributed it is motion-free because the
//     distinct keys contain the distribution key.
//   - qc-stats: per-class aggregates over the facts — the quality-control
//     profile; collocated aggregation, no motion.
func goldenPlans() []struct {
	name   string
	engine func(facts, mln *engine.Table) engine.Node
} {
	joinOuts := []engine.JoinOut{
		engine.ProbeCol("i", 0), engine.BuildCol("h", 0), engine.BuildCol("wr", 2),
	}
	highClass := func(t *engine.Table, row int) bool { return t.Int32Col(3)[row] > 3 }
	projExprs := []engine.OutExpr{engine.ColExpr("i", 0), engine.ColExpr("c1", 1)}
	qcAggs := []engine.AggSpec{
		{Kind: engine.AggCount, Name: "n"},
		{Kind: engine.AggCountDistinct, Col: 2, Name: "args"},
		{Kind: engine.AggMinF64, Col: 4, Name: "wmin"},
		{Kind: engine.AggSumF64, Col: 4, Name: "wsum"},
	}
	return []struct {
		name   string
		engine func(facts, mln *engine.Table) engine.Node
	}{
		{
			name: "rule-join",
			engine: func(facts, mln *engine.Table) engine.Node {
				j := engine.NewHashJoin(engine.NewScan(mln), engine.NewScan(facts),
					[]int{1}, []int{1}, joinOuts, "M1.b = T.c1")
				return engine.NewDistinct(j, []int{0, 1})
			},
		},
		{
			name: "delta-candidates",
			engine: func(facts, mln *engine.Table) engine.Node {
				f := engine.NewFilter(engine.NewScan(facts), "c2 > 3", highClass)
				return engine.NewDistinct(engine.NewProject(f, projExprs...), []int{0, 1})
			},
		},
		{
			name: "qc-stats",
			engine: func(facts, mln *engine.Table) engine.Node {
				return engine.NewGroupBy(engine.NewScan(facts), []int{1}, qcAggs)
			},
		},
	}
}

// goldenLower places the fixture on the cluster — the facts hashed by
// their class column, the MLN partition by its head class — and lowers
// the plan with motions on.
func goldenLower(cl *Cluster, plan engine.Node, facts, mln *engine.Table) Node {
	at := placing{facts: cl.Distribute(facts, []int{1}), mln: cl.Distribute(mln, []int{0})}
	return Lower(plan, at.place, nil, true)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN output changed (rerun with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenExplain pins the EXPLAIN output — operator tree, row counts,
// motion volumes, and the worker/morsel annotations of the morsel-parallel
// engine — for three representative grounding plans, single-node and
// distributed. Times are normalized; everything else must be stable.
// Refresh with: go test ./internal/mpp -run TestGoldenExplain -update
func TestGoldenExplain(t *testing.T) {
	for _, p := range goldenPlans() {
		t.Run(p.name+"/engine", func(t *testing.T) {
			facts, mln := goldenTables()
			plan := p.engine(facts, mln)
			engine.Configure(plan, goldenOpts)
			if _, err := plan.Run(); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "explain_"+p.name+"_engine", normalizeExplain(engine.Explain(plan)))
		})
		t.Run(p.name+"/mpp", func(t *testing.T) {
			facts, mln := goldenTables()
			cl := NewCluster(2)
			cl.SetWorkers(goldenOpts.Workers)
			cl.SetMorselSize(goldenOpts.MorselSize)
			plan := goldenLower(cl, p.engine(facts, mln), facts, mln)
			if _, err := plan.Run(); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "explain_"+p.name+"_mpp", normalizeExplain(Explain(plan)))
		})
	}
}

// execNoteRe strips the whole worker/morsel annotation when comparing
// runs at DIFFERENT worker counts: workers=1 takes the serial path (no
// parallel region, no annotation at all), so the note can't be part of
// the cross-worker invariant. The per-worker-count golden files keep
// it — that is where morsel counts are pinned.
var execNoteRe = regexp.MustCompile(` workers=\d+ morsels=\d+`)

// TestGoldenExplainAnalyze pins the EXPLAIN ANALYZE output — actual
// rows, estimate/error annotations, output bytes, morsel counts,
// per-segment rows, and motion volumes — for the same three grounding
// plans, single-node and distributed, at 1 and 8 workers. Only the
// time= field is normalized: everything else, including mem= and
// morsels=, must be bit-stable for a fixed fixture.
// Refresh with: go test ./internal/mpp -run TestGoldenExplainAnalyze -update
func TestGoldenExplainAnalyze(t *testing.T) {
	for _, workers := range []int{1, 8} {
		opts := engine.Opts{Workers: workers, MorselSize: 64}
		suffix := fmt.Sprintf("_w%d", workers)
		for _, p := range goldenPlans() {
			t.Run(fmt.Sprintf("%s/engine/w%d", p.name, workers), func(t *testing.T) {
				facts, mln := goldenTables()
				plan := p.engine(facts, mln)
				// Stamp a plausible estimate on the root so the golden
				// pins the est=/off= rendering alongside the actuals.
				engine.SetEstRows(plan, 100)
				engine.Configure(plan, opts)
				if _, err := plan.Run(); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, "analyze_"+p.name+"_engine"+suffix,
					normalizeExplain(engine.ExplainAnalyze(plan)))
			})
			t.Run(fmt.Sprintf("%s/mpp/w%d", p.name, workers), func(t *testing.T) {
				facts, mln := goldenTables()
				cl := NewCluster(2)
				cl.SetWorkers(opts.Workers)
				cl.SetMorselSize(opts.MorselSize)
				logical := p.engine(facts, mln)
				engine.SetEstRows(logical, 100)
				plan := goldenLower(cl, logical, facts, mln)
				if _, err := plan.Run(); err != nil {
					t.Fatal(err)
				}
				checkGolden(t, "analyze_"+p.name+"_mpp"+suffix,
					normalizeExplain(ExplainAnalyze(plan)))
			})
		}
	}
}

// TestAnalyzeActualsWorkerInvariant asserts the determinism contract
// EXPLAIN ANALYZE relies on: for a fixed-seed KB fixture, every
// operator's actual rows, output bytes, per-segment rows, and motion
// volumes are identical at 1, 2, and 8 workers — only time and the
// worker/morsel execution note may differ.
func TestAnalyzeActualsWorkerInvariant(t *testing.T) {
	normalize := func(s string) string {
		return execNoteRe.ReplaceAllString(normalizeExplain(s), "")
	}
	for _, p := range goldenPlans() {
		t.Run(p.name, func(t *testing.T) {
			var baseEngine, baseMPP string
			for i, workers := range []int{1, 2, 8} {
				facts, mln := goldenTables()
				plan := p.engine(facts, mln)
				engine.Configure(plan, engine.Opts{Workers: workers, MorselSize: 64})
				if _, err := plan.Run(); err != nil {
					t.Fatal(err)
				}
				gotEngine := normalize(engine.ExplainAnalyze(plan))

				facts, mln = goldenTables()
				cl := NewCluster(2)
				cl.SetWorkers(workers)
				cl.SetMorselSize(64)
				dplan := goldenLower(cl, p.engine(facts, mln), facts, mln)
				if _, err := dplan.Run(); err != nil {
					t.Fatal(err)
				}
				gotMPP := normalize(ExplainAnalyze(dplan))

				if i == 0 {
					baseEngine, baseMPP = gotEngine, gotMPP
					continue
				}
				if gotEngine != baseEngine {
					t.Errorf("engine actuals differ at workers=%d\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
						workers, baseEngine, workers, gotEngine)
				}
				if gotMPP != baseMPP {
					t.Errorf("mpp actuals differ at workers=%d\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
						workers, baseMPP, workers, gotMPP)
				}
			}
		})
	}
}
